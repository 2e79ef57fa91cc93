"""Lazy re-exports for package inits (PEP 562).

A serving process (``repro-phases serve`` or a cluster worker) needs
the tracker, the predictors, telemetry, the service and the gateway,
and none of the experiment stack: the simulator, the workload
generators, the harness, the cluster front end or the batch pool.
Package inits on the serving path re-export their experiment-only
names through :func:`lazy_exports`, so a name's module is imported on
the name's first lookup rather than when the package is (DESIGN §14).
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, namespace: dict, modules: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``.

    ``modules`` maps each defining module to the names the package
    re-exports from it, as ``from module import a, b`` would.
    ``namespace`` is the package's ``globals()``: a name is imported on
    its first lookup and stored there, so later lookups are plain
    attribute reads. Any other name raises :class:`AttributeError`, so
    ``hasattr`` stays false and ``from package import submodule`` still
    imports the submodule.
    """
    sources: Dict[str, str] = {
        name: module for module, names in modules.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = sources[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(sources))

    return __getattr__, __dir__
