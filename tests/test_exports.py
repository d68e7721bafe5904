import importlib
import pkgutil

import splitoct


def test_all_exports_resolve():
    names = ["splitoct"] + ["splitoct." + m.name
                            for m in pkgutil.iter_modules(splitoct.__path__)]
    for name in names:
        mod = importlib.import_module(name)
        for attr in getattr(mod, "__all__", ()):
            assert hasattr(mod, attr), (name, attr)
