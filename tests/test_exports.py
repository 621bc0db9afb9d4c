import importlib
import pkgutil

import rmep


def test_every_export_resolves():
    # a name deleted from a module but left in its __all__ breaks `import *`
    modules = [rmep] + [importlib.import_module(f"rmep.{m.name}") for m in pkgutil.iter_modules(rmep.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec("from rmep import *", namespace)
    assert set(rmep.__all__) <= namespace.keys()
