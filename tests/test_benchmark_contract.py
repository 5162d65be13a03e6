"""The benchmark's traced run (``perfbench/run.py --trace 1``) patches named
module attributes of the package; a refactor that renames or removes one of
them breaks that run. Installing the tracer proves every target exists."""

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_attribute_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    before = [getattr(module, attr) for module, attr, _, _ in tracing.TARGETS]
    with tracing.installed(tracing.Tracer()):
        pass
    assert [getattr(module, attr) for module, attr, _, _ in tracing.TARGETS] == before


@pytest.mark.parametrize("workload", ["two-channel-20k", "long-journeys"])
def test_traced_pass_counts_every_layer(monkeypatch, tmp_path, workload):
    """The observers read call shapes as well as names: ``mda_credits(model,
    journey)`` per journey, sized results of ``score_all`` and
    ``model_credit_records``, and attributable journeys with ``.touchpoints``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import run
    import tracing
    from workloads import WORKLOADS

    from mta_engine.attribution import MODEL_NAMES

    out = tmp_path / "out"
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(WORKLOADS[workload].config(1, str(out), 0.1)))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = run.inprocess_pass(config_path, out, tracer)
    assert result.failures == []
    metrics = tracing.layer_metrics(tracer)
    assert metrics["attribution.mda_loo_evals"] > 0
    for model in MODEL_NAMES:
        assert metrics[f"attribution.credits.{model}_s"] > 0
    assert metrics["pipeline.model_credit_rows"] == 4 * metrics["credits.mta_rows"] > 0
    assert checks.check_pass(out, result.summaries) == []
