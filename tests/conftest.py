import importlib
import os
import sys
from pathlib import Path

import pytest

from swipt_relay import verify
from swipt_relay.channel import FadingParams
from swipt_relay.params import SystemParams, dbm_to_linear

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "swipt_relay"


def size_line():
    """The sizes of the package and of its tests, the design metrics each change reports."""
    src, tests = (sum(path.read_bytes().count(b"\n") for path in directory.glob("*.py"))
                  for directory in (SRC, ROOT / "tests"))
    return f"src/swipt_relay/*.py: {src} lines, tests/*.py: {tests} lines (wc -l)"


def package_env():
    """The environment with src/ first on PYTHONPATH, for a subprocess that
    imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def textbook_rho_max(p, h_sq, gamma_0):
    """Root of F(rho) = rho*((1 - rho)*(P_s h^2 - gamma_0 sr^2) - gamma_0 sp^2) above zero."""
    return 1.0 - gamma_0 * p.sigma_p_sq / (p.p_s * h_sq - gamma_0 * p.sigma_r_sq)


def pytest_report_header(config):
    return size_line()


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q hides the report header
        terminalreporter.write_line(size_line())


@pytest.fixture
def ref_params():
    """The headline operating point: P_s=40 dBm, noise -20/-20/-17 dBm, R=3."""
    return SystemParams(
        p_s=dbm_to_linear(40.0),
        sigma_r_sq=dbm_to_linear(-20.0),
        sigma_p_sq=dbm_to_linear(-20.0),
        sigma_d_sq=dbm_to_linear(-17.0),
        rate=3.0,
    )


@pytest.fixture
def ref_fading():
    return FadingParams(lambda_h=1.5, lambda_g=1.5)


@pytest.fixture
def random_instances():
    """random_instances(rng, count): random (params, h_sq, g_sq) instances from
    the full-CSI battery's own draw, covering a wide operating range: P_s
    uniform in [20, 50] dBm, noises in [-30, -10] dBm, epsilon in [0.2, 1),
    channel gains log-uniform in [0.01, 10]. Each row of the draw's record view
    becomes a validated SystemParams."""
    def draw(rng, count):
        view, h_sq, g_sq = verify._draw_full(rng, count)
        params = [SystemParams(*row[:4], rate=verify.DEFAULT_RATE, epsilon=row[4])
                  for row in view.tolist()]
        return list(zip(params, h_sq.tolist(), g_sq.tolist()))
    return draw


@pytest.fixture(scope="session")
def checked_outage():
    """checked_outage(params, fading, name): the outage of policy `name` from
    perfbench/exact.py, the benchmark's own quadrature, which shares no code
    with the package; imported read-only."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        exact = importlib.import_module("exact")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))

    def outage(p, fading, name):
        link = exact.Link(p.p_s, p.sigma_r_sq, p.sigma_p_sq, p.sigma_d_eff, p.gamma_0,
                          fading.lambda_h, fading.lambda_g)
        return exact.outage(link, name)[0]
    return outage
