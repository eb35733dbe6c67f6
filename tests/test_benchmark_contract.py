"""What the benchmark relies on: the library functions its traced run wraps by
name, and the planted-pair check it makes on season-build's trained vectors."""

import importlib
import runpy
import sys
from pathlib import Path

import pytest

from eventsearch.corpus import format_month, ingest, segment_by_month
from eventsearch.embedding import TrainConfig, sim, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# run_path compiles the file without writing a bytecode cache next to it
TRACING = runpy.run_path(str(PERFBENCH / "tracing.py"))


@pytest.mark.parametrize("layer, func", TRACING["TARGETS"])
def test_traced_target_exists(layer, func):
    module = importlib.import_module(f"eventsearch.{layer}")
    assert callable(getattr(module, func, None)), f"eventsearch.{layer}.{func} is not callable"


@pytest.fixture(scope="module")
def gen():
    """perfbench/gen.py, imported without writing bytecode into perfbench/."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(PERFBENCH))
        yield runpy.run_path(str(PERFBENCH / "gen.py"))


@pytest.mark.parametrize("seed", range(10))
def test_planted_pairs_train_closer_than_control(gen, seed):
    """season-build's check on the trained vectors: sim(a, b) > sim(a, control) every month."""
    season = gen["season"](seed, gen["SIZES"]["tiny"]["season"])
    flags = dict(gen["TRAIN_FLAGS"])
    cfg = TrainConfig(lr_initial=flags.pop("lr"), rng_seed=seed, **flags)
    months = segment_by_month(ingest(doc.tsv() for doc in season.docs).documents)
    assert [format_month(m.month_key) for m in months] == season.months
    for month in months:
        a, b, control = season.planted[format_month(month.month_key)]
        model = train(month, cfg)
        assert sim(model, a, b) > sim(model, a, control)
