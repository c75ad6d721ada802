import importlib
import inspect
import subprocess
import sys

import pytest

from conftest import package_env

MODULES = ["params", "link", "policy", "sim", "channel", "verify"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"swipt_relay.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_gamma_0_is_read_from_params_not_passed(module):
    # only sim.outage_point keeps a gamma_0 slot, which it checks against params
    mod = importlib.import_module(f"swipt_relay.{module}")
    takers = [f"{module}.{name}" for name in mod.__all__
              if inspect.isfunction(getattr(mod, name))
              and "gamma_0" in inspect.signature(getattr(mod, name)).parameters]
    assert takers == (["sim.outage_point"] if module == "sim" else [])


# The package resolves each name on first access; the config names come from
# params, which imports no numpy.
FRESH_IMPORT = """
import sys
from swipt_relay import SweepSpec, FadingParams, validate
print("numpy" in sys.modules)
import swipt_relay
print([name for name in swipt_relay.__all__ if not hasattr(swipt_relay, name)])
"""


def test_every_package_name_resolves_and_the_config_names_load_no_numpy():
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "False\n[]\n", proc.stderr
