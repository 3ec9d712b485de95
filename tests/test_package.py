import types

import hidim


def test_star_import_binds_no_module():
    namespace = {}
    exec("from hidim import *", namespace)
    bound = {name: value for name, value in namespace.items() if name != "__builtins__"}
    assert sorted(bound) == sorted(hidim.__all__)
    assert not [name for name, value in bound.items() if isinstance(value, types.ModuleType)]
