"""Bench registry and the :class:`MetricSink` recording API.

Every benchmark under ``benchmarks/`` registers a :class:`BenchSpec`
(name, tags, runner, emitted-metric schema) at import time, mirroring
:mod:`repro.testing.registry` for estimators.  The spec's runner, the
pytest fixtures in ``benchmarks/conftest.py``, and the ``repro`` CLI
all feed the same :class:`MetricSink`, so one code path produces the
manifest'd artifact directories that ``repro diff`` / ``repro gate``
consume (see ``docs/artifacts.md``).

A bench module is re-imported by several drivers (pytest collection,
the smoke lane, CLI discovery); re-registering the *same* source file
under the same name replaces the entry, while two different files
claiming one name is a configuration error and raises.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import pathlib
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "BenchSpec",
    "BenchRunError",
    "MetricSink",
    "INJECT_ENV",
    "register_bench",
    "get_bench",
    "find_bench",
    "iter_benches",
    "bench_names",
    "resolve_bench_name",
    "discover_benches",
    "default_bench_dir",
    "module_runner",
    "run_module_tests",
]

#: Environment variable holding a JSON object ``{metric_name: factor}``.
#: Matching metrics are multiplied by the factor at summary time and the
#: manifest records the injection — the chaos hook used to validate that
#: ``repro gate`` actually trips on a regression.
INJECT_ENV = "REPRO_ARTIFACTS_INJECT"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _flatten(prefix: str, value, out: Dict[str, float]) -> None:
    if isinstance(value, Mapping):
        for key in value:
            child = f"{prefix}.{key}" if prefix else str(key)
            _flatten(child, value[key], out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten(f"{prefix}.{index}" if prefix else str(index), item, out)
    elif isinstance(value, bool):
        out[prefix] = 1.0 if value else 0.0
    elif _is_number(value):
        out[prefix] = float(value)


def _deep_merge(target: dict, update: Mapping) -> dict:
    for key, value in update.items():
        if (
            key in target
            and isinstance(target[key], dict)
            and isinstance(value, Mapping)
        ):
            _deep_merge(target[key], value)
        else:
            target[key] = value
    return target


class MetricSink:
    """Collects everything one bench run emits.

    Three channels, replacing the ad-hoc table writers and
    ``_merge_json`` helpers the benches used to carry individually:

    - :meth:`text` — a human-readable table or row block, printed as it
      arrives (visible under ``pytest -s``) and persisted under the run
      directory's ``tables/``;
    - :meth:`record` — a nested JSON payload deep-merged into the run's
      summary; every numeric leaf is also flattened into a dotted
      metric name (``svc_vector.speedup``) for diffing and gating;
    - :meth:`metric` — one explicit scalar metric.

    :meth:`path` hands out file paths under a scratch directory for
    auxiliary artifacts (Chrome traces, exported tables); they are
    copied into the run directory's ``traces/`` on flush.
    """

    def __init__(self, bench: str = "adhoc", run_id: Optional[str] = None,
                 seed: Optional[int] = None, echo: bool = True):
        from .manifest import new_run_id  # local import: avoid a cycle

        self.bench = bench
        self.run_id = run_id or new_run_id()
        self.seed = seed
        self.echo = echo
        self.texts: Dict[str, str] = {}
        self.payload: dict = {}
        self._explicit: Dict[str, float] = {}
        self._units: Dict[str, str] = {}
        self._scratch: Optional[tempfile.TemporaryDirectory] = None
        self._aux: Dict[str, pathlib.Path] = {}
        self.injections = self._parse_injections(os.environ.get(INJECT_ENV))

    @staticmethod
    def _parse_injections(raw: Optional[str]) -> Dict[str, float]:
        if not raw:
            return {}
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{INJECT_ENV} must be a JSON object of metric -> factor: "
                f"{error}"
            ) from None
        if not isinstance(parsed, dict):
            raise ValueError(f"{INJECT_ENV} must be a JSON object")
        return {str(k): float(v) for k, v in parsed.items()}

    # ------------------------------------------------------------ channels
    def text(self, name: str, body: str) -> None:
        """Record a human-readable artifact (and print it)."""
        if self.echo:
            print(f"\n=== {name} ===\n{body}\n")
        self.texts[name] = body

    def record(self, key: str, payload: Mapping) -> None:
        """Deep-merge a nested JSON payload under *key*."""
        if not isinstance(payload, Mapping):
            raise TypeError("record() takes a mapping payload")
        _deep_merge(self.payload, {key: _copy_jsonish(payload)})

    def metric(self, name: str, value, unit: str = "") -> None:
        """Record one explicit scalar metric."""
        if isinstance(value, bool):
            value = 1.0 if value else 0.0
        if not _is_number(value):
            raise TypeError(f"metric {name!r} must be numeric, got {value!r}")
        self._explicit[name] = float(value)
        if unit:
            self._units[name] = unit

    def path(self, name: str) -> pathlib.Path:
        """Return a scratch path for an auxiliary artifact file."""
        if "/" in name or "\\" in name or name.startswith("."):
            raise ValueError(f"aux artifact name {name!r} must be a bare name")
        if self._scratch is None:
            self._scratch = tempfile.TemporaryDirectory(prefix="repro-sink-")
        target = pathlib.Path(self._scratch.name) / name
        self._aux[name] = target
        return target

    # ------------------------------------------------------------ views
    def aux_files(self) -> Dict[str, pathlib.Path]:
        """Aux artifacts that were actually written."""
        return {
            name: path for name, path in self._aux.items() if path.exists()
        }

    def metrics(self) -> Dict[str, float]:
        """All scalar metrics: flattened payload leaves + explicit ones,
        with any :data:`INJECT_ENV` factors applied."""
        flat: Dict[str, float] = {}
        _flatten("", self.payload, flat)
        flat.update(self._explicit)
        for name, factor in self.injections.items():
            if name in flat:
                flat[name] *= factor
        return flat

    def is_empty(self) -> bool:
        return not (self.texts or self.payload or self._explicit
                    or self.aux_files())

    def summary(self) -> dict:
        return {
            "schema_version": 1,
            "bench": self.bench,
            "run_id": self.run_id,
            "seed": self.seed,
            "injected": dict(self.injections) or None,
            "units": dict(self._units),
            "payload": _copy_jsonish(self.payload),
            "metrics": self.metrics(),
        }

    def close(self) -> None:
        if self._scratch is not None:
            self._scratch.cleanup()
            self._scratch = None

    def __repr__(self):
        return (
            f"MetricSink(bench={self.bench!r}, run_id={self.run_id!r}, "
            f"{len(self.metrics())} metrics, {len(self.texts)} texts)"
        )


def _copy_jsonish(value):
    """Deep-copy a payload into plain JSON types (numpy scalars included
    via their ``item()``)."""
    if isinstance(value, Mapping):
        return {str(k): _copy_jsonish(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_copy_jsonish(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (TypeError, ValueError):
            return str(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


# ----------------------------------------------------------------------
# the spec + registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: how to run it and what it emits.

    ``metrics`` is the emitted-metric schema — dotted metric name to a
    one-line description — the names ``repro diff`` reports on and
    ``rules.toml`` policies reference.  ``json_name`` preserves the
    legacy ``benchmarks/results/BENCH_*.json`` mirror filename.
    """

    name: str
    runner: Callable[[MetricSink], None]
    title: str = ""
    tags: Tuple[str, ...] = ()
    metrics: Mapping[str, str] = field(default_factory=dict)
    json_name: Optional[str] = None
    smoke_env: Mapping[str, str] = field(default_factory=dict)
    source: str = ""

    @property
    def mirror_json_name(self) -> str:
        return self.json_name or f"BENCH_{self.name}"


_REGISTRY: Dict[str, BenchSpec] = {}


def register_bench(spec: BenchSpec) -> BenchSpec:
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.source and spec.source:
        if pathlib.Path(existing.source).name != pathlib.Path(spec.source).name:
            raise ValueError(
                f"bench name {spec.name!r} claimed by both "
                f"{existing.source} and {spec.source}"
            )
    _REGISTRY[spec.name] = spec
    return spec


def iter_benches() -> List[BenchSpec]:
    return list(_REGISTRY.values())


def bench_names() -> Tuple[str, ...]:
    return tuple(_REGISTRY)


def resolve_bench_name(name: str) -> str:
    """Resolve a CLI-friendly alias to a registered bench name.

    Accepts the registered name, a ``bench_``-prefixed module name or
    filename (``bench_perf_gram_engine``, ``benchmarks/bench_x.py``),
    and unique prefixes (``fig11`` for ``fig11_returns``).
    """
    stem = pathlib.Path(name).stem
    for candidate in (name, stem, stem[len("bench_"):]
                      if stem.startswith("bench_") else stem):
        if candidate in _REGISTRY:
            return candidate
    short = stem[len("bench_"):] if stem.startswith("bench_") else stem
    matches = [n for n in _REGISTRY if n.startswith(short)]
    if len(matches) == 1:
        return matches[0]
    known = ", ".join(sorted(_REGISTRY)) or "(none discovered)"
    detail = f"ambiguous between {matches}" if matches else "no match"
    raise KeyError(f"unknown bench {name!r} ({detail}); known: {known}")


def get_bench(name: str) -> BenchSpec:
    return _REGISTRY[resolve_bench_name(name)]


def find_bench(name: str) -> Optional[BenchSpec]:
    try:
        return _REGISTRY[resolve_bench_name(name)]
    except KeyError:
        return None


def default_bench_dir() -> Optional[pathlib.Path]:
    """Locate the ``benchmarks/`` directory: ``REPRO_BENCH_DIR``, then
    upward from the CWD, then relative to the installed source tree."""
    env = os.environ.get("REPRO_BENCH_DIR")
    if env:
        return pathlib.Path(env)
    current = pathlib.Path.cwd()
    for base in (current, *current.parents):
        candidate = base / "benchmarks"
        if candidate.is_dir() and list(candidate.glob("bench_*.py")):
            return candidate
    repo = pathlib.Path(__file__).resolve().parents[3] / "benchmarks"
    if repo.is_dir():
        return repo
    return None


def discover_benches(bench_dir=None) -> List[BenchSpec]:
    """Import every ``bench_*.py`` under *bench_dir* so each registers
    its spec, then return the registry contents."""
    bench_dir = pathlib.Path(bench_dir) if bench_dir else default_bench_dir()
    if bench_dir is None:
        return iter_benches()
    for path in sorted(bench_dir.glob("bench_*.py")):
        _load_module(path, prefix="repro_bench_discovery_")
    return iter_benches()


# ----------------------------------------------------------------------
# running a bench module's pytest-style functions outside pytest
# ----------------------------------------------------------------------
class BenchRunError(RuntimeError):
    """One or more bench test functions failed."""

    def __init__(self, bench: str, failures):
        self.bench = bench
        self.failures = failures
        lines = [f"{len(failures)} failure(s) running bench {bench!r}:"]
        lines += [f"  {name}: {error!r}" for name, error in failures]
        super().__init__("\n".join(lines))


class _NullBenchmark:
    """Stand-in for the pytest-benchmark fixture: runs the body once."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, target, args=(), kwargs=None, rounds=1,
                 iterations=1, **_ignored):
        return target(*args, **(kwargs or {}))


def _load_module(path: pathlib.Path, prefix: str = "repro_bench_"):
    path = pathlib.Path(path).resolve()
    name = f"{prefix}{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


def _marks(func) -> List:
    return list(getattr(func, "pytestmark", []))


def _is_fixture(obj) -> bool:
    return callable(obj) and (
        hasattr(obj, "_pytestfixturefunction")
        or hasattr(getattr(obj, "__wrapped__", None), "_pytestfixturefunction")
    )


class _FixtureScope:
    """Just enough of pytest's fixture model to execute bench modules:
    module-level zero-dependency-cycle fixtures, ``benchmark``,
    ``sink``, and single-level ``parametrize``."""

    def __init__(self, module, sink: MetricSink):
        self.module = module
        self.sink = sink
        self.cache: Dict[str, object] = {}
        self.finalizers: List = []

    def resolve(self, name: str):
        if name == "sink":
            return self.sink
        if name == "benchmark":
            return _NullBenchmark()
        if name in self.cache:
            return self.cache[name]
        candidate = getattr(self.module, name, None)
        if candidate is None or not _is_fixture(candidate):
            raise LookupError(
                f"cannot resolve fixture {name!r} for bench module "
                f"{self.module.__name__}"
            )
        func = getattr(candidate, "__wrapped__", candidate)
        kwargs = self._call_kwargs(func, bound={})
        if inspect.isgeneratorfunction(func):
            generator = func(**kwargs)
            value = next(generator)
            self.finalizers.append(generator)
        else:
            value = func(**kwargs)
        self.cache[name] = value
        return value

    def _call_kwargs(self, func, bound: Mapping) -> dict:
        kwargs = {}
        for parameter in inspect.signature(func).parameters.values():
            if parameter.default is not inspect.Parameter.empty:
                continue
            if parameter.name in bound:
                kwargs[parameter.name] = bound[parameter.name]
            else:
                kwargs[parameter.name] = self.resolve(parameter.name)
        return kwargs

    def run_test(self, func) -> None:
        variants = [{}]
        for mark in _marks(func):
            if mark.name != "parametrize":
                continue
            argnames, argvalues = mark.args[0], mark.args[1]
            names = [n.strip() for n in argnames.split(",")]
            expanded = []
            for bound in variants:
                for values in argvalues:
                    if len(names) == 1:
                        values = (values,)
                    expanded.append({**bound, **dict(zip(names, values))})
            variants = expanded
        for bound in variants:
            func(**self._call_kwargs(func, bound))

    def finalize(self) -> None:
        for generator in self.finalizers:
            try:
                next(generator)
            except StopIteration:
                pass


def run_module_tests(module, sink: MetricSink,
                     include_slow: bool = False) -> None:
    """Execute every ``test_*`` function in *module* against *sink*.

    ``slow``-marked tests are skipped unless *include_slow*.  Failures
    are collected and re-raised together as :class:`BenchRunError` so a
    late test still runs after an early assertion trips.
    """
    scope = _FixtureScope(module, sink)
    failures = []
    try:
        for name, func in vars(module).items():
            if not (name.startswith("test_") and callable(func)):
                continue
            if not include_slow and any(
                mark.name == "slow" for mark in _marks(func)
            ):
                continue
            try:
                scope.run_test(func)
            except Exception as error:  # noqa: BLE001 - reported in bulk
                failures.append((name, error))
    finally:
        scope.finalize()
    if failures:
        raise BenchRunError(sink.bench, failures)


def module_runner(path) -> Callable[[MetricSink], None]:
    """Build a :class:`BenchSpec` runner that freshly imports the bench
    module at *path* and executes its test functions."""
    path = pathlib.Path(path).resolve()

    def run(sink: MetricSink, include_slow: bool = False) -> None:
        module = _load_module(path, prefix="repro_bench_run_")
        run_module_tests(module, sink, include_slow=include_slow)

    run.__name__ = f"run_{path.stem}"
    return run
