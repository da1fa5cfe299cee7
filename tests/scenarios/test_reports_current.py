"""Committed reports must match what the code renders today.

Each deterministic report under ``benchmarks/reports/`` is re-rendered
by the benchmark that writes it — run once, through a stand-in for the
pytest-benchmark fixture — and compared byte-for-byte with the
committed file.  A change that moves a number must regenerate the
report (``pytest benchmarks/bench_<name>.py``) and the EXPERIMENTS.md
table quoting it in the same commit, instead of leaving both stale.

Not re-rendered here: the wall-clock ``kernel`` report, whose numbers
vary run to run, and the ``scaleout`` and ``dbscale`` sweeps, which
take 20-40 s each (CI runs their smoke variants).
"""

import importlib
import inspect
from pathlib import Path

import pytest

from repro.telemetry.report import to_csv

REPORTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "reports"

BENCHES = ("ablations", "async", "backfill", "chaos", "datapath", "deploy",
           "fig6", "fig7", "fig8", "notify", "overhead", "poll_interval",
           "scalability", "seed_sensitivity", "small_files", "streams",
           "throughput")


class _RunOnce:
    """Stand-in for the pytest-benchmark fixture: run the workload once."""

    def __init__(self):
        self.extra_info = {}

    def pedantic(self, fn, args=(), kwargs=None, **_):
        return fn(*args, **(kwargs or {}))

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _report_writers():
    for bench in BENCHES:
        module = importlib.import_module(f"benchmarks.bench_{bench}")
        for name, fn in sorted(vars(module).items()):
            params = inspect.signature(fn).parameters \
                if name.startswith("test_") and callable(fn) else ()
            if "save_report" in params or "save_series" in params:
                yield pytest.param(fn, id=f"bench_{bench}::{name}")


@pytest.mark.parametrize("writer", _report_writers())
def test_committed_report_is_current(writer):
    rendered = {}

    def save_report(name, text):
        rendered[f"{name}.txt"] = text + "\n"

    def save_series(name, series_list):
        rendered[f"{name}.csv"] = to_csv(series_list) + "\n"

    fixtures = {"benchmark": _RunOnce(), "save_report": save_report,
                "save_series": save_series}
    writer(**{p: fixtures[p] for p in inspect.signature(writer).parameters})
    assert rendered
    for filename, text in rendered.items():
        committed = (REPORTS_DIR / filename).read_text()
        assert text == committed, (
            f"benchmarks/reports/{filename} is stale: the code renders "
            f"something else — regenerate it and the EXPERIMENTS.md "
            f"numbers quoting it")
