"""The benchmark's traced run (``perfbench/run.py --trace 1``) patches named
module attributes of the package; a refactor that renames or removes one of
them breaks that run. Installing the tracer proves every target exists."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_attribute_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    before = [getattr(module, attr) for module, attr, _, _ in tracing.TARGETS]
    with tracing.installed(tracing.Tracer()):
        pass
    assert [getattr(module, attr) for module, attr, _, _ in tracing.TARGETS] == before
