"""ModelRepository: calibrate-once memoization, crash-safe persistence,
and the cache-key regression (observer config + engine accumulator width
must invalidate persisted artifacts)."""

import json
import threading

import numpy as np
import pytest

from repro.engine import planes
from repro.serve import ModelLoadError, ModelRepository, execute_batch, micro_specs

pytestmark = pytest.mark.serve


def make_repo(tmp_path, **kw):
    kw.setdefault("calib_n", 8)
    return ModelRepository(micro_specs(), cache_dir=tmp_path / "cache", **kw)


def run_one(repo, model="micro-mlp", fmt="MERSIT(8,2)", mode="fakequant"):
    net, spec = repo.resolve(model, fmt, mode)
    x = spec.collate(spec.requests(3, seed=5))
    return spec.run(net, x)


def test_resolve_calibrates_once_per_key(tmp_path):
    repo = make_repo(tmp_path)
    net1, _ = repo.resolve("micro-mlp", "MERSIT(8,2)")
    net2, _ = repo.resolve("micro-mlp", "MERSIT(8,2)")
    assert net1 is net2
    assert repo.calibrations == 1
    repo.resolve("micro-mlp", "INT8")  # different format: its own entry
    assert repo.calibrations == 2


def test_concurrent_resolvers_share_one_calibration(tmp_path):
    repo = make_repo(tmp_path)
    results = []

    def resolver():
        results.append(repo.resolve("micro-cnn", "MERSIT(8,2)")[0])

    threads = [threading.Thread(target=resolver) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert repo.calibrations == 1
    assert all(r is results[0] for r in results)


@pytest.mark.parametrize("mode", ["fakequant", "engine"])
def test_execute_batch_replies_own_their_rows(tmp_path, mode):
    """A held reply must not pin the rest of its batch's output."""
    repo = make_repo(tmp_path)
    inputs = micro_specs()["micro-mlp"].requests(4, seed=5)
    replies = execute_batch(repo, repo.model_key("micro-mlp", "MERSIT(8,2)", mode),
                            inputs)
    assert len(replies) == 4
    assert all(reply.base is None for reply in replies)


@pytest.mark.parametrize("mode", ["fakequant", "engine"])
def test_artifact_restores_bit_identically_across_instances(tmp_path, mode):
    out1 = run_one(make_repo(tmp_path), mode=mode)
    repo2 = make_repo(tmp_path)
    out2 = run_one(repo2, mode=mode)
    assert repo2.calibrations == 0 and repo2.artifact_hits == 1
    np.testing.assert_array_equal(out1, out2)


def test_corrupt_artifact_falls_back_to_recalibration(tmp_path):
    repo1 = make_repo(tmp_path)
    out1 = run_one(repo1)
    path = repo1.artifact_path("micro-mlp", "MERSIT(8,2)")
    path.write_text("{ truncated garbage")
    bak = path.with_name(path.name + ".bak")
    if bak.exists():
        bak.unlink()
    repo2 = make_repo(tmp_path)
    out2 = run_one(repo2)
    assert repo2.calibrations == 1 and repo2.artifact_hits == 0
    np.testing.assert_array_equal(out1, out2)  # recalibration is deterministic


def test_unknown_model_is_a_structured_load_error(tmp_path):
    repo = make_repo(tmp_path)
    with pytest.raises(ModelLoadError) as ei:
        repo.resolve("no-such-model", "INT8")
    assert ei.value.to_entry()["error"]["kind"] == "model-load"


# ----------------------------------------------------------------------
# cache-key regression: every served-number knob must be in the key
# ----------------------------------------------------------------------

def test_cache_key_covers_observer_and_accumulator_width(tmp_path):
    repo = make_repo(tmp_path)
    base = repo.cache_key("micro-mlp", "MERSIT(8,2)", "engine")
    assert base["observer"] == "max"
    assert base["accumulator_block"] == planes.BLOCK
    assert make_repo(tmp_path, observer="percentile").cache_key(
        "micro-mlp", "MERSIT(8,2)", "engine") != base
    assert make_repo(tmp_path, gain_override=2.0).cache_key(
        "micro-mlp", "MERSIT(8,2)", "engine") != base
    assert make_repo(tmp_path, per_channel=False).cache_key(
        "micro-mlp", "MERSIT(8,2)", "engine") != base
    assert make_repo(tmp_path, calib_seed=1).cache_key(
        "micro-mlp", "MERSIT(8,2)", "engine") != base


def test_observer_change_does_not_reuse_artifact(tmp_path):
    make_repo(tmp_path).resolve("micro-mlp", "MERSIT(8,2)")
    repo2 = make_repo(tmp_path, observer="percentile")
    repo2.resolve("micro-mlp", "MERSIT(8,2)")
    assert repo2.calibrations == 1  # artifact ignored, not silently reused
    assert repo2.artifact_hits == 0


def test_accumulator_width_change_does_not_reuse_artifact(tmp_path, monkeypatch):
    make_repo(tmp_path).resolve("micro-mlp", "MERSIT(8,2)", "engine")
    # a rebuilt engine with a different Kulisch block width must not pick
    # up scales persisted under the old accumulator configuration
    monkeypatch.setattr(planes, "BLOCK", planes.BLOCK * 2)
    repo2 = make_repo(tmp_path)
    assert repo2.cache_key("micro-mlp", "MERSIT(8,2)",
                           "engine")["accumulator_block"] == planes.BLOCK
    repo2.resolve("micro-mlp", "MERSIT(8,2)", "engine")
    assert repo2.calibrations == 1
    assert repo2.artifact_hits == 0


def test_artifact_embeds_its_full_key(tmp_path):
    repo = make_repo(tmp_path)
    repo.resolve("micro-mlp", "INT8")
    blob = json.loads(repo.artifact_path("micro-mlp", "INT8").read_text())
    key = blob["payload"]["key"]
    for field in ("model", "weight_format", "mode", "calib_n", "calib_seed",
                  "observer", "per_channel", "gain_override",
                  "accumulator_block", "schema"):
        assert field in key
    assert blob["payload"]["scales"]  # per-layer scales present


# ----------------------------------------------------------------------
# mixed-precision specs through the repository
# ----------------------------------------------------------------------

def test_mixed_maps_differing_in_one_layer_get_distinct_keys(tmp_path):
    repo = make_repo(tmp_path)
    a = repo.cache_key("micro-mlp", "mixed(MERSIT(8,2);layer2=FP(8,2))",
                       "engine")
    b = repo.cache_key("micro-mlp", "mixed(MERSIT(8,2);layer2=FP(8,3))",
                       "engine")
    assert a != b
    assert a["layer_formats"] == {"layer2": "FP(8,2)"}
    # a uniform map canonicalises onto the plain-format key (and cache)
    u = repo.cache_key("micro-mlp", "mixed(MERSIT(8,2);layer2=MERSIT(8,2))",
                       "engine")
    assert u == repo.cache_key("micro-mlp", "MERSIT(8,2)", "engine")
    assert u["layer_formats"] is None


def test_mixed_spec_spellings_share_one_calibration(tmp_path):
    repo = make_repo(tmp_path)
    net1, _ = repo.resolve("micro-mlp", "mixed(MERSIT(8,2);layer2=FP(8,2))")
    net2, _ = repo.resolve("micro-mlp", "mixed(MERSIT(8,2);layer2=FP(8,2)) ")
    assert net1 is net2 and repo.calibrations == 1
    repo.resolve("micro-mlp", "mixed(MERSIT(8,2);layer2=FP(8,3))")
    assert repo.calibrations == 2


@pytest.mark.parametrize("mode", ["fakequant", "engine"])
def test_mixed_artifact_restores_per_layer_scales_bit_identically(
        tmp_path, mode):
    spec = "mixed(MERSIT(8,2);layer2=FP(8,2);layer4=FP(8,4))"
    repo1 = make_repo(tmp_path)
    out1 = run_one(repo1, fmt=spec, mode=mode)
    net1, _ = repo1.resolve("micro-mlp", spec, mode)

    repo2 = make_repo(tmp_path)
    out2 = run_one(repo2, fmt=spec, mode=mode)
    net2, _ = repo2.resolve("micro-mlp", spec, mode)
    assert repo2.calibrations == 0 and repo2.artifact_hits == 1

    from repro.quant import parse_format_spec, quantized_layers
    _, layer_formats = parse_format_spec(spec)
    fresh = dict(quantized_layers(net1))
    restored = dict(quantized_layers(net2))
    assert set(fresh) == set(restored)
    for name, layer in fresh.items():
        other = restored[name]
        expect = layer_formats.get(name, "MERSIT(8,2)")
        assert layer.weight_quant.fmt.name == expect
        assert other.weight_quant.fmt.name == expect
        assert (layer.weight_quant.scale.tobytes()
                == other.weight_quant.scale.tobytes())
        assert (np.asarray(layer.input_quant.scale).tobytes()
                == np.asarray(other.input_quant.scale).tobytes())
        if mode == "engine":
            assert other.engine_exec.wfmt.name == expect
    np.testing.assert_array_equal(out1, out2)


def test_unknown_layer_in_mixed_spec_is_a_structured_load_error(tmp_path):
    repo = make_repo(tmp_path)
    with pytest.raises(ModelLoadError):
        repo.resolve("micro-mlp", "mixed(MERSIT(8,2);nope=FP(8,2))")
