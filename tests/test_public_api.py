import inspect
import types

import putboundary
from putboundary import asymptotics, core, pricing, psor, ssch, zhu

MODULES = (core, asymptotics, zhu, ssch, psor, pricing)


def test_public_names_are_the_modules_all():
    """The package exports exactly what its modules list in __all__, so a
    name removed from one list but not the other shows here."""
    public = {
        name
        for name, value in vars(putboundary).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*(m.__all__ for m in MODULES))


def test_no_quadrature_settings_in_the_api():
    """Node counts and tolerances are private constants of the modules that
    use them: no settings object is exported and no function takes one."""
    assert not hasattr(putboundary, "QuadratureConfig")
    functions = (
        core.find_root_bracketed,
        ssch.solve_boundary,
        zhu.rho_zhu,
        zhu.zhu_second_derivative,
        zhu.f2_max,
        zhu.gamma_critical,
        pricing.price_gap_full,
        pricing.price_gap_at_boundary,
        pricing.mispricing_err,
    )
    for fn in functions:
        assert "cfg" not in inspect.signature(fn).parameters, fn.__name__
