import importlib
import inspect

import pytest

MODULES = ["link", "policy", "sim", "channel", "verify"]


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
