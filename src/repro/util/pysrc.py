"""Python source under construction, for the IR compilers.

``repro.nir.compile`` and ``repro.pisa.compile`` turn an IR into one
Python function: they emit lines into a :class:`PySource`, refer to
run-time objects (op-table entries, error helpers, tables) by the names
:meth:`PySource.const` hands out, and call :meth:`PySource.build` once,
which runs ``compile()`` on the text.
"""

from __future__ import annotations

import copy
import re
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NoReturn, Optional, Type, cast

#: expressions :meth:`PySource.temp` need not copy: a name or an int literal
_SIMPLE = re.compile(r"\w+|\(-?\d+\)")


class PySource:
    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.lines: List[str] = []
        self.namespace: Dict[str, object] = {}
        self._const_names: Dict[int, str] = {}
        self._depth = 0
        self._counter = 0

    def line(self, text: str) -> None:
        self.lines.append("    " * self._depth + text)

    @contextmanager
    def block(self, header: str) -> Iterator[None]:
        """``header:`` followed by an indented body."""
        self.line(header)
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1

    def fresh(self, hint: str) -> str:
        """A new local name."""
        self._counter += 1
        return f"{hint}_{self._counter}"

    def const(self, obj: object, hint: Optional[str] = None) -> str:
        """The global name *obj* is bound to in the generated code."""
        name = self._const_names.get(id(obj))
        if name is None:
            hint = hint or re.sub(r"\W|^_+", "", getattr(obj, "__name__", "")) or "k"
            name = self._const_names[id(obj)] = self.fresh(f"_{hint}")
            self.namespace[name] = obj
        return name

    def temp(self, expr: str) -> str:
        """A local holding *expr*, so that it is evaluated once."""
        if _SIMPLE.fullmatch(expr):
            return expr
        name = self.fresh("t")
        self.line(f"{name} = {expr}")
        return name

    def raise_(self, error: Type[Exception], message: str, *format_args: str) -> None:
        """``raise error(message.format(*format_args))`` (context suppressed)."""
        text = repr(message)
        if format_args:
            text += f".format({', '.join(format_args)})"
        self.line(f"raise {self.const(error)}({text}) from None")

    def fail(self, exc: Exception, *evaluated: str) -> str:
        """An expression that evaluates *evaluated*, then raises a copy of
        *exc*: an error the IR raises when this point runs, found while
        generating it."""
        return f"{self.const(_raiser(exc), 'fail')}({', '.join(evaluated)})"

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def build(self, name: str) -> Callable[..., Any]:
        """Compile the source and return the function it defines as *name*."""
        namespace = dict(self.namespace)
        exec(compile(self.text, self.filename, "exec"), namespace)
        return cast(Callable[..., Any], namespace[name])


def _raiser(exc: Exception) -> Callable[..., NoReturn]:
    def fail(*_evaluated: object) -> NoReturn:
        raise copy.copy(exc)

    return fail
