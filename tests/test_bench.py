import importlib
import importlib.util
from pathlib import Path

from splitoct import octonion as oc
from splitoct import scalars
from splitoct import words as wd
from splitoct.invariants import generic_octonion

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    """bench/tracing.py, loaded from its file: bench is not a package."""
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_is_where_the_tracer_looks_it_up():
    # a refactor that moves a wrapped function or operator breaks
    # Tracer.install, which only the traced benchmark runs would show
    tracing = _tracing()
    names = {"words.normalize_trace"}
    for mod, fn in tracing._FUNCTIONS:
        assert callable(getattr(importlib.import_module("splitoct." + mod), fn, None)), \
            (mod, fn)
        names.add("%s.%s" % (mod, fn))
    for mod, cls_name, methods, name, _keep in tracing._METHODS:
        cls = getattr(importlib.import_module("splitoct." + mod), cls_name)
        for meth in methods:
            assert meth in cls.__dict__, (cls_name, meth)
        names.add(name)
    # the two hooks that name their boundary per call
    assert "__mul__" in oc.Octonion.__dict__
    assert callable(wd.normalize_trace) and wd.degree(((1, 2), 3)) == 3
    for cls_name, tag in tracing._RING_TAGS.items():
        assert isinstance(getattr(scalars, cls_name), type), cls_name
        names.add("octonion.mul." + tag)
    assert set(tracing.LAYER_MAP) <= names


def test_tracer_installs_counts_and_uninstalls():
    tracing = _tracing()
    for mod, _fn in tracing._FUNCTIONS:
        importlib.import_module("splitoct." + mod)
    before = (wd.normalize_trace, wd.evaluate, wd.TraceExpr.__dict__["__mul__"],
              oc.Octonion.__dict__["__mul__"])
    ring = scalars.PolynomialRing(scalars.QQ)
    z1, z2 = (generic_octonion(ring, i) for i in (1, 2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        wd.normalize_trace(((1, 2), 3))
        wd.te_tr((1,)) * wd.te_tr((2,))
        e = oc.unit_e(scalars.QQ, 1)
        wd.evaluate((1, 1), (e,))
        z1 * z2
    finally:
        tracer.uninstall()
    assert (wd.normalize_trace, wd.evaluate, wd.TraceExpr.__dict__["__mul__"],
            oc.Octonion.__dict__["__mul__"]) == before
    for name in ("words.normalize_trace.deg3", "words.TraceExpr.mul",
                 "words.evaluate", "octonion.mul.qq", "octonion.mul.poly"):
        assert tracer.stats[name][0] == 1, name
    # the polynomial product is fused below Octonion.__mul__, so it is
    # counted where the per-layer metrics look and never as a
    # Polynomial product
    assert "scalars.Polynomial.mul" not in tracer.stats
