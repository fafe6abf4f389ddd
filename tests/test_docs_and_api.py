"""Public-API hygiene: every public package exports what it claims, every
public item has a docstring, the examples' imports resolve, and the
documentation's relative links point at real files and headings."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.isa",
    "repro.functional",
    "repro.vm",
    "repro.mem",
    "repro.timing",
    "repro.core",
    "repro.system",
    "repro.opt",
    "repro.runtime",
    "repro.workloads",
    "repro.harness",
    "repro.telemetry",
    "repro.chaos",
]

#: telemetry/chaos modules whose *entire* public surface (classes,
#: functions, public methods) must be documented — the observability and
#: robustness stories are documented APIs, not internal details
#: (docs/OBSERVABILITY.md, docs/ROBUSTNESS.md).
TELEMETRY_MODULES = [
    "repro.telemetry",
    "repro.telemetry.counters",
    "repro.telemetry.compare",
    "repro.telemetry.events",
    "repro.chaos",
    "repro.chaos.engine",
    "repro.chaos.sanitizer",
    "repro.chaos.watchdog",
    # The CUDA-like runtime (streams included) is a documented public API:
    # docs/CONCURRENCY.md leans on these docstrings.
    "repro.runtime",
    "repro.runtime.device",
]

#: instrumentation hook points: the methods that emit telemetry or host a
#: chaos injection/sanitizer check must say so
HOOK_POINTS = [
    ("repro.timing.sm", "SmPipeline", "try_issue"),
    ("repro.timing.sm", "SmPipeline", "squash_faulted"),
    ("repro.timing.sm", "SmPipeline", "launch_block"),
    ("repro.mem.tlb", "Mmu", "attach_telemetry"),
    ("repro.mem.tlb", "Mmu", "attach_chaos"),
    ("repro.mem.tlb", "Mmu", "translate"),
    ("repro.mem.tlb", "Mmu", "shootdown"),
    ("repro.system.faults", "FaultController", "on_fault"),
    ("repro.system.gpu", "GpuSimulator", "run"),
    ("repro.timing.engine", "EventQueue", "attach_sanitizer"),
]


class TestExports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_public_callables_documented(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{name}.{symbol} undocumented"


class TestTelemetryDocstrings:
    @pytest.mark.parametrize("name", TELEMETRY_MODULES)
    def test_full_public_surface_documented(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"
        undocumented = []
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != name:
                continue  # re-export; documented where it is defined
            if inspect.isclass(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{name}.{attr}")
                for mname, meth in vars(obj).items():
                    if mname.startswith("_") and mname != "__init__":
                        continue
                    if inspect.isfunction(meth) and not inspect.getdoc(meth):
                        undocumented.append(f"{name}.{attr}.{mname}")
            elif inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{name}.{attr}")
        assert not undocumented, f"undocumented: {undocumented}"

    @pytest.mark.parametrize("module,cls,method", HOOK_POINTS)
    def test_instrumented_hook_points_documented(self, module, cls, method):
        obj = getattr(importlib.import_module(module), cls)
        fn = getattr(obj, method)
        assert inspect.getdoc(fn), f"{module}.{cls}.{method} undocumented"


class TestExampleImports:
    @pytest.mark.parametrize(
        "path",
        [
            "examples/quickstart.py",
            "examples/scheme_comparison.py",
            "examples/block_switching.py",
            "examples/local_fault_handling.py",
            "examples/pipeline_diagrams.py",
            "examples/preemption_latency.py",
            "examples/multi_stream.py",
            "examples/run_all_experiments.py",
            "examples/telemetry_tour.py",
        ],
    )
    def test_example_compiles(self, path):
        import py_compile

        py_compile.compile(path, doraise=True)


class TestDocLinks:
    def test_all_relative_doc_links_resolve(self, capsys):
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            check_doc_links = importlib.import_module("check_doc_links")
        finally:
            sys.path.pop(0)
        broken = check_doc_links.main([str(REPO_ROOT)])
        assert broken == 0, capsys.readouterr().out


class TestVersion:
    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)
