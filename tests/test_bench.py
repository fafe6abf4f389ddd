"""The shared benchmark harness (:mod:`repro.harness.bench`): the
committed ``BENCH_*`` records survive its load/save byte for byte, and
each benchmark command's ``--update``/``--json`` tail writes what
docs/PERFORMANCE.md "Measuring" says it writes."""

import pytest

from repro.harness import bench, dist_bench, hotloop_bench, serve_bench

MODULES = [hotloop_bench, dist_bench, serve_bench]


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_committed_record_round_trips(module, tmp_path):
    out = bench.save_record(
        bench.load_record(module.RECORD), str(tmp_path / "record.json")
    )
    assert _read(out) == _read(module.RECORD)


@pytest.mark.parametrize(
    "module", MODULES[1:], ids=lambda m: m.__name__
)
def test_update_writes_the_whole_record(module, tmp_path, monkeypatch):
    """Re-recording the committed measurement with ``--update``
    reproduces the committed file (schema included), and ``--json``
    pairs the committed record with the measurement."""
    committed = bench.load_record(module.RECORD)
    measured = {k: v for k, v in committed.items() if k != "schema"}
    expected = _read(module.RECORD)
    path = tmp_path / "record.json"
    out = tmp_path / "out.json"
    monkeypatch.setattr(module, "RECORD", str(path))
    monkeypatch.setattr(module, "measure", lambda *a, **k: measured)
    assert module.main(["--update", "--json", str(out)]) == 0
    assert path.read_bytes() == expected
    assert bench.load_record(str(out)) == {
        "committed": committed, "measured": measured,
    }


def test_hotloop_update_rewrites_only_after(tmp_path, monkeypatch):
    committed = bench.load_record(hotloop_bench.RECORD)
    measured = dict(committed["after"], normalized=1.0)
    path = bench.save_record(committed, str(tmp_path / "record.json"))
    monkeypatch.setattr(hotloop_bench, "RECORD", path)
    monkeypatch.setattr(hotloop_bench, "measure", lambda *a, **k: measured)
    assert hotloop_bench.main(["--update"]) == 0
    assert bench.load_record(path) == {**committed, "after": measured}


def test_best_of_returns_the_normalized_best_and_last_result():
    calls = []
    stats, last = bench.best_of(lambda: calls.append(1) or len(calls), 2)
    assert last == 2
    assert set(stats) == {
        "raw_seconds", "spin_seconds", "normalized", "repeats",
    }
    assert stats["repeats"] == 2
    assert stats["spin_seconds"] > 0


def test_band():
    assert bench.band(8.0) == (6.0, 10.0)
