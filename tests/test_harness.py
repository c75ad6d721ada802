"""The benchmark's span harness (perfbench/spans.py) patches names of the
package for one traced repetition. A rename in the package that it cannot
follow would break `perfbench/run.py --trace 1`, so it is exercised here."""
import importlib
from pathlib import Path

from swipt_relay import cli, sim, verify
from swipt_relay.policy import Fixed, FullCSI, PartialCSI

ROOT = Path(__file__).resolve().parent.parent


def test_pool_probe_and_tracer_wrap_the_package_and_restore_it(monkeypatch, ref_params,
                                                               ref_fading):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    sim.ProcessPoolExecutor  # imported on first read; the probe's restore caches it
    before = {m: dict(vars(m)) for m in (sim, verify, cli)}
    probe, tracer = spans.PoolProbe(), spans.Tracer()
    with probe.installed(), spans.traced(tracer):
        sim.outage_point(ref_params, ref_fading, (FullCSI(), Fixed(0.4)),
                         ref_params.gamma_0, 1000, 5)
    assert len(probe.point_s) == 1
    names = {span[0] for span in tracer.spans}
    assert {"sim.outage_point", "channel.substream", "channel.sample_channels",
            "policy.full_csi"} <= names
    # the kernel's exact outage test is snr(): one call per policy in the one batch
    assert tracer.children_of("sim.outage_point", "link.snr") == [2]
    assert all(dict(vars(m)) == saved for m, saved in before.items())


def test_the_semi_analytic_kernel_evaluates_each_slice_once(monkeypatch, ref_params, ref_fading):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    with spans.traced(tracer):
        sim.outage_semi_analytic(ref_params, ref_fading, PartialCSI(), 3 * sim.CHUNK, 5)
    # one batch of three slices: one conditional_outage call per slice
    assert tracer.children_of("sim.outage_semi_analytic", "link.conditional_outage") == [3]
