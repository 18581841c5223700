"""End-to-end trial benchmark for the repro simulator (see run.py)."""
