"""Integration: build model -> train readout -> swap activations -> measure.

Exercises the full Table III pipeline on a single model, plus the
performance-model pipeline from profile to speedup.
"""

import numpy as np
import pytest

from repro.graph.passes import make_pwl_approximators
from repro.graph.program import compile_graph
from repro.perf.accelerator import AcceleratorConfig
from repro.perf.costs import model_speedup
from repro.zoo.builders import BUILDERS
from repro.zoo.catalog import build_catalog, family_records
from repro.zoo.dataset import make_image_dataset
from repro.zoo.train import MiniModel, accuracy_drop, fit_readout


@pytest.fixture(scope="module")
def trained_effnet():
    data = make_image_dataset(n_classes=16, n_train=384, n_test=256,
                              noise=1.0, seed=2)
    trunk = BUILDERS["efficientnet"](act="silu", scale=0.5, seed=0)
    model = MiniModel(name="effnet", family="efficientnet",
                      primary_activation="silu", trunk=trunk, input_name="x")
    acc = fit_readout(model, data)
    return model, data, acc


class TestAccuracyPipeline:
    def test_baseline_beats_chance(self, trained_effnet):
        _, _, acc = trained_effnet
        assert acc > 25.0  # chance is 6.25 %

    def test_drop_decreases_with_budget(self, trained_effnet):
        model, data, acc = trained_effnet
        drops = []
        for nbp in (4, 16, 64):
            approx = make_pwl_approximators(["silu", "sigmoid"], nbp)
            res = accuracy_drop(model, data, approx, nbp, exact_accuracy=acc)
            drops.append(abs(res.drop))
        assert drops[2] <= drops[0] + 1e-9
        assert drops[2] < 0.5  # 64 breakpoints nearly lossless

    def test_approx_model_shares_readout(self, trained_effnet):
        model, data, acc = trained_effnet
        approx = make_pwl_approximators(["silu", "sigmoid"], 32)
        clone = model.with_approximations(approx)
        assert clone.readout_w is model.readout_w
        assert clone.feat_mean is model.feat_mean

    def test_relu_swap_is_lossless(self):
        data = make_image_dataset(n_classes=8, n_train=128, n_test=128,
                                  noise=0.8, seed=3)
        trunk = BUILDERS["resnet"](act="relu", scale=0.5, seed=0)
        model = MiniModel(name="r", family="resnet", primary_activation="relu",
                          trunk=trunk, input_name="x")
        acc = fit_readout(model, data)
        approx = make_pwl_approximators(["relu"], 4)
        res = accuracy_drop(model, data, approx, 4, exact_accuracy=acc)
        assert res.drop == pytest.approx(0.0, abs=1e-9)


class TestPerformancePipeline:
    @pytest.fixture(scope="class")
    def records(self):
        return build_catalog(seed=0)

    def test_profiled_record_speedup_sane(self, records):
        cfg = AcceleratorConfig()
        for rec in records[::50]:
            s = model_speedup(rec, cfg)
            assert 0.9 < s < 10.0

    def test_relu_families_at_parity(self, records):
        cfg = AcceleratorConfig()
        vggs = family_records(records, "vgg")
        speedups = [model_speedup(r, cfg) for r in vggs]
        assert all(abs(s - 1.0) < 0.01 for s in speedups)

    def test_efficientnets_gain_substantially(self, records):
        cfg = AcceleratorConfig()
        effs = family_records(records, "efficientnet")
        mean = np.mean([model_speedup(r, cfg) for r in effs])
        assert mean > 1.2

    def test_profile_consistency_with_executor(self, rng):
        """Catalog stats must equal a live profile of the same builder."""
        from repro.zoo.catalog import _profile

        prof = _profile("vgg", 1.0)
        graph = BUILDERS["vgg"](act="relu", scale=1.0, seed=7)
        _, live = compile_graph(graph).run_profiled(
            {"x": np.zeros((1, 3, 16, 16))})
        assert live.total_macs == prof.total_macs
        assert live.total_act_elements == prof.total_act_elements
