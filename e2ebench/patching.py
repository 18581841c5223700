"""Temporary attribute swaps on the simulator's classes and modules.

The benchmark measures the program from outside: it replaces a public
function or method with a wrapper for the length of a run and puts the
original back afterwards.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Patches"]


class Patches:
    """Swaps made by :meth:`wrap`, undone newest first by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) with
        ``make(original)``."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
