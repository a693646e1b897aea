"""The package's public names: ``__all__`` lists what ``import lefdet`` binds.

``lefdet.__all__`` is derived from the package's globals, so this pins what
the derivation must leave out: submodules, private names and anything that
was not defined in ``lefdet`` itself.
"""

import types

import lefdet


def test_star_import_binds_exactly_all_every_public_name_and_no_module():
    namespace = {}
    exec("from lefdet import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == lefdet.__all__ == sorted(set(lefdet.__all__))
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    # a helper imported for the derivation itself (such as ModuleType) is not public
    assert all(value.__module__.startswith("lefdet.") for value in namespace.values())
    public = {name for name, value in vars(lefdet).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(namespace) == public
