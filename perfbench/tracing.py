"""Per-request time limit and in-memory spans around germlab's public functions.

Tracing wraps each layer's public functions at every name they are bound
to inside the package (``germlab.cli.germ_report``,
``germlab.invariants.milnor_number``, ``germlab.localalg.standard_basis``,
...), so calls made from inside the package are seen too.  Nothing under
``src/`` changes, and ``Tracer.uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import signal
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Optional

import germlab
import germlab.cli
import germlab.compare
import germlab.invariants
import germlab.localalg
import germlab.polynomials
import germlab.resolution

#: The layers, in the order the package builds them up, and the public
#: functions each one is traced at.  Polynomial methods are named "Polynomial.<m>".
LAYERS: dict[str, tuple[types.ModuleType, tuple[str, ...]]] = {
    "cli": (germlab.cli, ("main",)),
    "polynomials": (
        germlab.polynomials,
        ("parse_polynomial", "Polynomial.substitute", "Polynomial.substitute_linear"),
    ),
    "localalg": (
        germlab.localalg,
        ("standard_basis", "milnor_number", "tjurina_number", "colength", "colength_oracle"),
    ),
    "resolution": (
        germlab.resolution,
        (
            "resolve_branch",
            "strict_transform_once",
            "tangent_data",
            "characteristic_from_sequence",
            "delta_from_sequence",
        ),
    ),
    "invariants": (
        germlab.invariants,
        ("germ_report", "resolution_law_checks", "theorem_verify", "blowup_law_check"),
    ),
    "compare": (germlab.compare, ("not_smoother",)),
}

_PACKAGE_MODULES = (
    germlab,
    germlab.cli,
    germlab.compare,
    germlab.invariants,
    germlab.localalg,
    germlab.polynomials,
    germlab.resolution,
)


def _resolve(module: types.ModuleType, name: str) -> tuple[object, str, Callable]:
    owner: object = module
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def public_functions() -> list[tuple[str, str, object, str, Callable]]:
    """(layer, name, owner, attribute, function) for every traced function."""
    out = []
    for layer, (module, names) in LAYERS.items():
        for name in names:
            owner, attr, fn = _resolve(module, name)
            out.append((layer, f"{layer}.{name.split('.')[-1]}", owner, attr, fn))
    return out


_CODE_LAYER = {fn.__code__: layer for layer, _, _, _, fn in public_functions()}


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request that ran past its time limit.

    It is neither a GermError nor an OSError, so ``germlab.cli.main`` does
    not turn it into an exit code; deriving from BaseException keeps a
    future ``except Exception`` in the program from swallowing it too.
    """

    def __init__(self, layer: str):
        super().__init__(layer)
        self.layer = layer


def innermost_layer(frame: Optional[types.FrameType]) -> str:
    """Layer of the innermost traced public function running in ``frame``'s stack.

    This is the layer of the innermost open span when tracing is on, and it
    needs no tracing.  Time spent in the benchmark's own code is "benchmark".
    """
    while frame is not None:
        layer = _CODE_LAYER.get(frame.f_code)
        if layer is not None:
            return layer
        frame = frame.f_back
    return "benchmark"


def _on_alarm(signum, frame):
    raise RequestTimeout(innermost_layer(frame))


def call_with_limit(fn: Callable[[], object], limit_s: float) -> object:
    """Run ``fn`` under a SIGALRM timer; raises RequestTimeout past ``limit_s``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        result = fn()
        signal.setitimer(signal.ITIMER_REAL, 0)
        return result
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- spans -----------------------------------------------------------------------


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: int = -1
    note: object = None
    children_s: float = 0.0
    raised: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


def _bits_and_size(basis) -> tuple[int, int]:
    bits = max(
        (abs(c.numerator).bit_length() for g in basis.generators for c in g.terms.values()),
        default=0,
    )
    return bits, len(basis.generators)


def _terms(args, result):
    return len(result)


def _strict_terms(args, result):
    return len(result.strict_transform)


def _oracle_stable(args, result):
    return result is not germlab.localalg.UNSTABLE


# Spans of these calls keep their germ, taken before the call so that calls
# cut by the time limit count too.
_KEEP_GERM = {"localalg.milnor_number", "localalg.tjurina_number"}

# What a span keeps about a call that returned, taken after the span ended.
_NOTES: dict[str, Callable] = {
    "localalg.standard_basis": lambda args, result: _bits_and_size(result),
    "localalg.colength_oracle": _oracle_stable,
    "resolution.strict_transform_once": _strict_terms,
    "polynomials.parse_polynomial": _terms,
}


@dataclass
class Tracer:
    """Collects spans in memory while installed; ``request`` tags new spans."""

    spans: list[Span] = field(default_factory=list)
    request: int = -1
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        note = _NOTES.get(name)
        keep_germ = name in _KEEP_GERM
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, layer, clock(), parent=parent, request=self.request)
            if keep_germ:
                span.note = args[0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].children_s += span.duration
            if note is not None:
                span.note = note(args, result)
            return result

        traced.span_name = name
        return traced

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        for layer, name, owner, attr, fn in public_functions():
            wrapper = self._wrap(name, layer, fn)
            wrappers[id(fn)] = wrapper
            if isinstance(owner, type):
                self._patched.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
        for module in _PACKAGE_MODULES:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def leftover_wrappers() -> list[str]:
    """Names in the package still bound to a wrapper; empty after ``uninstall``."""
    owners = _PACKAGE_MODULES + (germlab.polynomials.Polynomial,)
    return [
        f"{owner.__name__}.{attr}"
        for owner in owners
        for attr, value in vars(owner).items()
        if hasattr(value, "span_name")
    ]
