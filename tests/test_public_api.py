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
