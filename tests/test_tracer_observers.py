"""The benchmark tracer's observers read attributes off the toolkit's objects.
A toolkit change that removes one of those attributes makes the observer
fail, the tracer then records no attributes for the span, and the per-layer
metrics built from them read 0 without an error. These tests call every
observed function for real and check that its span carries attributes."""

import importlib.util
from pathlib import Path

import numpy as np

from voxuq import gda, head, synthworld

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_observer_records_attributes_on_a_real_call(tmp_path):
    tracing = _load_tracer()
    config = synthworld.WorldConfig(grid=(8, 8, 2), num_classes=3, feature_dim=4,
                                    train_scenes=1, val_scenes=0, test_scenes=0, seed=5)
    world = synthworld.generate_world(config)
    dataset = synthworld.generate_dataset(world, "train")
    scene = dataset.scenes[0]
    rng = np.random.default_rng(0)
    bank = gda.FeatureBank(num_classes=2, cap_per_class=50)
    bank.vectors = {c: list(rng.standard_normal((20, 4)) + c) for c in range(2)}
    bank.seen_counts = {0: 20, 1: 20}
    model = gda.fit_gda(bank)
    net = head.ResidualMlpHead(head.HeadConfig(input_dim=4, hidden_width=4, num_classes=3))

    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        for kind in synthworld.CORRUPTION_KINDS:
            for region in synthworld.REGIONS:
                spec = synthworld.CorruptionSpec(kind=kind, severity=2, region=region)
                synthworld.apply_corruption(scene, spec, 3, world, sigma_z=1.0)
        net.forward(scene.features.reshape(-1, 4))
        model.log_density(rng.standard_normal((7, 4)))
        gda.fit_gda(bank)
        synthworld.save_dataset(dataset, tmp_path / "train")
        loaded = synthworld.load_dataset(tmp_path / "train")
    finally:
        tracer.uninstall()

    observed = {name for name, _, _, observe in tracing.TARGETS
                if observe is not None and observe is not tracing.observe_load}
    attrs = {}
    for name, _, _, _, _, span_attrs in tracer.spans:
        attrs.setdefault(name, []).append(span_attrs)
    assert observed <= set(attrs)
    for name in observed:
        assert all(isinstance(a, dict) and a for a in attrs[name]), (name, attrs[name])
    assert attrs["gda.fit_gda"] == [{"ladder_rung": 0}]
    # observe_load records no attributes; it marks the loaded buffers as new inputs
    assert tracer.input_key(loaded.scenes[0].features)[2] is not None
