import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitoct import cli
from splitoct import invariants as inv
from splitoct import octonion as oc
from splitoct import suite
from splitoct import symbolic as sy
from splitoct.scalars import GF, QQ


WITNESS_P5 = "field p=5\n0 1 0 0 1 0 0 0\n"
ZEROS_2 = "field q\n0 0 0 0 0 0 0 0\n0 0 0 0 0 0 0 0\n"
U1V1_2 = "field q\n0 1 0 0 0 0 0 0\n0 0 0 0 1 0 0 0\n"
ZEROS_3 = "field q\n" + "0 0 0 0 0 0 0 0\n" * 3
VS_3 = ("field q\n"
        "0 0 0 0 1 0 0 0\n"
        "0 0 0 0 0 1 0 0\n"
        "0 0 0 0 0 0 1 0\n")


VERIFY_OUT = """\
trace-symmetry                 pass
norm-multiplicativity          pass
quadratic-relation             pass
norm-polarization              pass
product-polarization           pass
left-alternative               pass
right-alternative              pass
left-alternative-linearized    pass
right-alternative-linearized   pass
trace-associativity            pass
norm-trace-relation            pass
skew-symmetrization            pass
"""

EXAMPLES_OUT = """\
basis-products                            pass
norm-of-u1-plus-v1                        pass
degree-4-generating-witness               pass
conjugation-antihomomorphism              pass
hbar-action                               pass
signed-permutation-image                  pass
shift-automorphism-image                  pass
diagonal-scaling                          pass
trace-norm-preservation                   pass
coordinate-action-formula                 pass
minimal-separation-pairs                  pass
degree-4-separation-values                pass
limit-table                               pass
limit-values                              pass
skew-symmetrization-identity              pass
skew-symmetrization-unit-specialization   pass
skew-symmetrization-paths-agree           pass
matrix-bridge                             pass
matrix-generator-flags                    pass
matrix-embedding                          pass
subalgebra-closures                       pass
group-order                               pass
orbit-oracle-witness                      pass
closed-class-table                        pass
eval-row-value                            pass
identity-suite                            pass
trace-sign-rules                          pass
basis-gram-nonsingular                    pass
28 checks, 28 passed
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_tuple_file_rationals():
    ring, tup = cli.parse_tuple_file("field q\n1/2 0 0 0 0 0 0 -3\n")
    assert ring is QQ
    c = tup[0].coords()
    assert c[0] == QQ(1) / 2 and c[7] == -3
    _ring, tup = cli.parse_tuple_file("field q\n-3 +5 0.5 .5 5. -3/4 1000003 -.25\n")
    assert tup[0].coords() == tuple(map(Fraction, (-3, 5, "1/2", "1/2", 5, "-3/4",
                                                   1000003, "-1/4")))


def test_parse_tuple_file_prime_field_reduces_negatives():
    ring, tup = cli.parse_tuple_file("field p=2\n-1 0 0 0 0 0 0 0\n")
    assert ring is GF(2)
    assert tup[0].coords()[0] == GF(2)(1)


def test_parse_tuple_file_comments_and_fractions_mod_p():
    ring, tup = cli.parse_tuple_file(
        "# comment\nfield p=5  # inline\n1/2 0 0 0 0 0 0 0\n")
    assert tup[0].coords()[0] == GF(5)(3)


@pytest.mark.parametrize("text,fragment", [
    ("", "missing"),
    ("notafield\n", "line 1"),
    ("field p=4\n", "line 1"),
    ("field p=%d\n" % 2 ** 89, "too large"),
    ("field q\n1 2 3\n", "line 2"),
    ("field q\nx 0 0 0 0 0 0 0\n", "line 2"),
    ("field p=2\n1/2 0 0 0 0 0 0 0\n", "line 2"),
    ("field q\n", "no octonions"),
    ("field q\n1e4000000 0 0 0 0 0 0 0\n", "line 2"),
    ("field q\n0 1E-4000000 0 0 0 0 0 0\n", "line 2"),
    ("field q\n1_000 0 0 0 0 0 0 0\n", "line 2"),
    # Arabic-Indic five and zero, which Fraction reads as 5 and 0
    ("field q\n\u0665 0 0 0 0 0 0 0\n", "line 2"),
    ("field p=5\n0 0 0 0 0 0 0 \u0660\n", "line 2"),
    # the modulus is an ASCII integer too, with no separator or plus sign
    ("field p=1_000_003\n0 0 0 0 0 0 0 0\n", "bad field spec"),
    ("field p=\u0665\n0 0 0 0 0 0 0 0\n", "bad field spec"),
    ("field p=+5\n0 0 0 0 0 0 0 0\n", "bad field spec"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(cli.ParseError) as err:
        cli.parse_tuple_file(text)
    assert fragment in str(err.value)


_TOKENS = st.one_of(st.text("0123456789+-/.eEx_", min_size=1, max_size=12),
                   st.integers(-10 ** 6, 10 ** 6).map(str))
_HEADERS = st.sampled_from(["field q", "field p=2", "field p=5", "field p=4",
                            "field p=-3", "field p=1000003", "field p=x",
                            "field", "notafield"])


@settings(max_examples=500, deadline=None)
@given(_HEADERS, st.lists(st.lists(_TOKENS, min_size=7, max_size=9), max_size=3))
def test_parse_tuple_file_raises_only_parse_errors(header, rows):
    text = "\n".join([header] + [" ".join(row) for row in rows]) + "\n"
    try:
        ring, tup = cli.parse_tuple_file(text)
    except cli.ParseError:
        return
    assert len(tup) == len(rows) and all(a.ring is ring for a in tup)


_PARSE_FIELDS = [0, 2, 5, 10 ** 14 + 31]
# signs, leading zeros and the shortest decimals, which take the integer
# path or the Fraction path by a single character
_EDGE_TOKENS = ["-0", "007", "+3", "3/6", ".5", "1.", "-007", "+0", "0/7",
                "-3/6", "10/2", "5", "-5", "100000000000000031"]
_SCALAR_TOKENS = st.one_of(st.from_regex(cli._SCALAR, fullmatch=True),
                           st.sampled_from(_EDGE_TOKENS))


def _check_parse_against_fraction(p, tokens):
    """parse_tuple_file reads each token as ring(Fraction(token)), value
    and type, or refuses the file when one of those raises."""
    ring = QQ if p == 0 else GF(p)
    text = "field %s\n%s\n" % ("q" if p == 0 else "p=%d" % p, " ".join(tokens))
    try:
        want = [ring(Fraction(t)) for t in tokens]
    except ZeroDivisionError:
        with pytest.raises(cli.ParseError):
            cli.parse_tuple_file(text)
        return
    _ring, (a,) = cli.parse_tuple_file(text)
    assert list(a.coords()) == want
    assert [type(x) for x in a.coords()] == [type(x) for x in want]


@pytest.mark.parametrize("p", _PARSE_FIELDS)
def test_edge_tokens_parse_as_fractions(p):
    for token in _EDGE_TOKENS:
        _check_parse_against_fraction(p, [token] + ["0"] * 7)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_PARSE_FIELDS),
       st.lists(_SCALAR_TOKENS, min_size=8, max_size=8))
def test_parsed_scalars_equal_the_fraction_path(p, tokens):
    _check_parse_against_fraction(p, tokens)


@pytest.mark.parametrize("spec", ["q", "p=5"])
def test_integer_beyond_the_digit_limit_exits_2(tmp_path, capsys, spec):
    # int() and Fraction() both refuse more than
    # sys.get_int_max_str_digits() (4,300 by default) digits
    path = write(tmp_path, "big.oct",
                 "field %s\n0 %s 0 0 0 0 0 0\n" % (spec, "7" * 5000))
    _refused(["eval", path], capsys, "line 2: cannot parse scalar")


def test_refused_token_is_echoed_in_bounded_length(tmp_path, capsys):
    short = write(tmp_path, "short.oct", "field q\n0 0 0 0 0 0 0 1e3\n")
    _refused(["eval", short], capsys, "line 2: cannot parse scalar '1e3'\n")
    token = "1" * 10 ** 6 + "x"
    long = write(tmp_path, "long.oct", "field p=5\n0 0 %s 0 0 0 0 0\n" % token)
    assert cli.main(["eval", long]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: cannot parse scalar '111")
    assert "(1000001 characters)" in captured.err
    assert len(captured.err) < 120
    undefined = write(tmp_path, "undefined.oct",
                      "field p=5\n1/%s 0 0 0 0 0 0 0\n" % ("5" * 1000))
    assert cli.main(["eval", undefined]) == 2
    captured = capsys.readouterr()
    assert "line 2: scalar '1/555" in captured.err
    assert "(1002 characters) is undefined in this field" in captured.err
    assert len(captured.err) < 120


_GOOD_HEADERS = ["field q", "field p=2", "field p=5", "field p=1000003"]
_BAD_HEADERS = ["field p=4", "field p=x", "field", "notafield"]
_GOOD_TOKENS = st.one_of(st.integers(-3, 3).map(str),
                         st.sampled_from(["1/2", "-3/4", "0.5", "1000003"]))
_BAD_TOKENS = st.sampled_from(["1/0", "1e3", "2E-1", "x", "--1"])


@st.composite
def _tuple_file(draw, header, n):
    """A tuple file of n octonions, about half of them broken in one way:
    a malformed header, a row of 7 or 9 scalars, a refused token, or no
    rows.  A fraction such as 1/2 is also refused over GF(2)."""
    rows = [draw(st.lists(_GOOD_TOKENS, min_size=8, max_size=8)) for _ in range(n)]
    fault = draw(st.sampled_from([None, None, None, "header", "count", "token",
                                  "empty"]))
    if fault == "header":
        header = draw(st.sampled_from(_BAD_HEADERS))
    elif fault == "count":
        rows[-1] = rows[-1][:7] if draw(st.booleans()) else rows[-1] + ["0"]
    elif fault == "token":
        rows[-1][draw(st.integers(0, 7))] = draw(_BAD_TOKENS)
    elif fault == "empty":
        rows = []
    return "\n".join([header] + [" ".join(r) for r in rows]) + "\n"


_EXIT_LAMBDAS = st.one_of(
    st.tuples(st.integers(-10 ** 12, 10 ** 12), st.integers(-10 ** 12, 10 ** 12))
    .map(lambda ab: "%d,%d,%d" % (ab[0], ab[1], -ab[0] - ab[1])),
    st.sampled_from(["1,-1,0", "0,0,0", "1,1,0", "1,-1", "1,-1,0,0", "a,b,c", "",
                     "1.5,-1.5,0"]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["eval", "separate", "limit"]), st.data())
def test_exit_codes_on_generated_files(tmp_path_factory, command, data):
    """Any tuple file ends in exit 0, 1 or 2, exit 2 prints nothing to
    stdout, and no exception escapes main."""
    header = data.draw(st.sampled_from(_GOOD_HEADERS))
    n = data.draw(st.integers(1, 3))
    d = tmp_path_factory.mktemp("exit")
    a = write(d, "a.oct", data.draw(_tuple_file(header, n)))
    b = write(d, "b.oct", data.draw(_tuple_file(
        data.draw(st.sampled_from([header, "field q"])), n)))
    family = data.draw(st.sampled_from(["S", "S0"]))
    degree = str(data.draw(st.integers(1, 8)))
    argv = {"eval": ["eval", a, "--family", family, "--degree", degree],
            "separate": ["separate", a, b, "--family", family, "--degree", degree],
            "limit": ["limit", a, "--lambda=" + data.draw(_EXIT_LAMBDAS)]}[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""


def test_eval_command(tmp_path, capsys):
    path = write(tmp_path, "w.oct", WITNESS_P5)
    assert cli.main(["eval", path, "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "tr(1) = 0\nn(1) = 4\n"


def test_eval_empty_table(tmp_path, capsys):
    path = write(tmp_path, "w.oct", WITNESS_P5)
    assert cli.main(["eval", path, "--family", "S0", "--degree", "1"]) == 0
    assert capsys.readouterr().out == ""


def test_eval_e1(tmp_path, capsys):
    path = write(tmp_path, "e1.oct", "field q\n1 0 0 0 0 0 0 0\n")
    assert cli.main(["eval", path, "--degree", "2"]) == 0
    assert capsys.readouterr().out == "tr(1) = 1\nn(1) = 0\n"


def test_separate_exit_codes(tmp_path, capsys):
    a = write(tmp_path, "a.oct", ZEROS_2)
    b = write(tmp_path, "b.oct", U1V1_2)
    assert cli.main(["separate", a, b, "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "separated by tr(1,2): 0 != 1" in out

    a3 = write(tmp_path, "a3.oct", ZEROS_3)
    b3 = write(tmp_path, "b3.oct", VS_3)
    assert cli.main(["separate", a3, b3, "--degree", "2"]) == 1
    assert "not separated" in capsys.readouterr().out
    assert cli.main(["separate", a3, b3, "--degree", "3"]) == 0
    assert "separated by tr(1,2,3)" in capsys.readouterr().out

    bad = write(tmp_path, "bad.oct", "junk\n")
    assert cli.main(["separate", a, bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no partial table on error


def _tuple_text(p, n):
    rows = (" ".join(str((7 * i + 3 * j) % p) for j in range(8)) for i in range(n))
    return "field p=%d\n%s\n" % (p, "\n".join(rows))


def test_family_size_limit(tmp_path, capsys):
    # 18 members at degree 8 is a family of 106,779 descriptors
    big = write(tmp_path, "big.oct", _tuple_text(5, 18))
    assert cli.main(["eval", big]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n=18" in captured.err and "limit of 100000" in captured.err
    assert cli.main(["separate", big, big]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limit of 100000" in captured.err


def test_eval_prints_the_largest_family_at_degree_8(tmp_path, capsys):
    # 17 members at degree 8 is a family of 65,552 descriptors, the
    # largest under the limit
    path = write(tmp_path, "n17.oct", _tuple_text(5, 17))
    assert cli.main(["eval", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 65_552
    assert lines[0].startswith("tr(1) = ")
    assert lines[-1].startswith("tr(10,11,12,13,14,15,16,17) = ")


def _count_products(monkeypatch):
    """Count the calls of Octonion.__mul__, _zorn and _zorn_trace."""
    calls = {"mul": 0, "zorn": 0, "zorn_trace": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(oc.Octonion, "__mul__", counting("mul", oc.Octonion.__mul__))
    monkeypatch.setattr(oc, "_zorn", counting("zorn", oc._zorn))
    monkeypatch.setattr(oc, "_zorn_trace", counting("zorn_trace", oc._zorn_trace))
    return calls


def _qq_tuple_text(n):
    rows = (" ".join("%d/%d" % ((7 * i + 3 * j) % 19 - 9, 1 + (i + j) % 4)
                     for j in range(8)) for i in range(n))
    return "field q\n%s\n" % "\n".join(rows)


def test_eval_one_product_per_trace(tmp_path, capsys, monkeypatch):
    # the family runs on lifted rows, never through Octonion.__mul__ or a
    # scalar product: one lane row per trace of length 2..7 in 12 letters,
    # only the trace for each of the 495 of length 8, and the 12 norms
    lane_product = inv._lane_product
    tables = {id(inv._PRODUCT): "product", id(inv._TRACE): "trace",
              id(inv._NORM): "norm"}
    for text in (_qq_tuple_text(12), _tuple_text(2 ** 61 - 1, 12)):
        rows = {}

        def counting(a, pre, b, last, table, p):
            name = tables[id(table)]
            rows[name] = rows.get(name, 0) + len(pre)
            return lane_product(a, pre, b, last, table, p)

        monkeypatch.setattr(inv, "_lane_product", counting)
        calls = _count_products(monkeypatch)
        path = write(tmp_path, "t.oct", text)
        assert cli.main(["eval", path, "--family", "S", "--degree", "8"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3808
        assert calls == {"mul": 0, "zorn": 0, "zorn_trace": 0}
        assert rows == {"product": 3289, "trace": 495, "norm": 12}


def _assert_eval_is_the_reference_table(tmp_path, capsys, monkeypatch, text):
    """eval of S at degree 8 prints eval_descriptor's table, byte for
    byte, with every level one array product: no scalar product at all."""
    ring, tup = cli.parse_tuple_file(text)
    want = "".join("%s = %s\n" % (desc.name(), inv.eval_descriptor(desc, tup))
                   for desc in inv.enumerate_set("S", len(tup), 8))
    calls = _count_products(monkeypatch)
    path = write(tmp_path, "t.oct", text)
    assert cli.main(["eval", path, "--family", "S", "--degree", "8"]) == 0
    assert capsys.readouterr().out == want
    assert calls == {"mul": 0, "zorn": 0, "zorn_trace": 0}


def test_eval_over_a_small_field_forms_no_scalar_product(tmp_path, capsys, monkeypatch):
    # p - 1 < 2^30: every product of residues is exact in int64
    _assert_eval_is_the_reference_table(tmp_path, capsys, monkeypatch, _tuple_text(5, 12))


def test_eval_over_a_large_field_forms_no_scalar_product(tmp_path, capsys, monkeypatch):
    # 2^30 <= p - 1 < 2^50: each product is reduced by the float-quotient
    # mulmod; the residues spread over the whole field
    p = 10 ** 14 + 31
    rows = (" ".join(str((7 * i + 3 * j + 1) * 123456789012345 % p) for j in range(8))
            for i in range(12))
    _assert_eval_is_the_reference_table(tmp_path, capsys, monkeypatch,
                                        "field p=%d\n%s\n" % (p, "\n".join(rows)))


def test_separate_mismatched_fields(tmp_path, capsys):
    a = write(tmp_path, "a.oct", ZEROS_2)
    c = write(tmp_path, "c.oct", "field p=2\n0 0 0 0 0 0 0 0\n0 0 0 0 0 0 0 0\n")
    assert cli.main(["separate", a, c]) == 2
    assert "different fields" in capsys.readouterr().err


def test_limit_command(tmp_path, capsys):
    path = write(tmp_path, "u1.oct", "field q\n0 1 0 0 0 0 0 0\n")
    assert cli.main(["limit", path, "--lambda", "1,-1,0"]) == 0
    out = capsys.readouterr().out
    assert "rank before = 1" in out
    assert "limit exists" in out
    assert "0 0 0 0 0 0 0 0" in out
    assert "rank after = 0" in out


def test_limit_does_not_exist(tmp_path, capsys):
    path = write(tmp_path, "v1.oct", "field q\n0 0 0 0 1 0 0 0\n")
    assert cli.main(["limit", path, "--lambda", "1,-1,0"]) == 0
    assert "limit does not exist" in capsys.readouterr().out


def test_limit_bad_lambda(tmp_path, capsys):
    path = write(tmp_path, "u1.oct", "field q\n0 1 0 0 0 0 0 0\n")
    assert cli.main(["limit", path, "--lambda", "1,1,0"]) == 2
    capsys.readouterr()
    # each part is an ASCII integer: no other digits, separators or signs
    for lam in ("\u0661,-1,0", "1_0,-10,0", "+1,-1,0", "1, -1,0", "1,-1,0,"):
        assert cli.main(["limit", path, "--lambda=" + lam]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad --lambda value")


@pytest.mark.parametrize("argv", [["eval", "x.oct", "--degree", "\u0668"],
                                  ["separate", "x.oct", "y.oct", "--degree", "+8"],
                                  ["group", "--q", "\u0662"],
                                  ["group", "--q", "2_0"]])
def test_integer_options_need_ascii_digits(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "invalid integer value" in capsys.readouterr().err


def test_limit_negative_first_exponent(tmp_path, capsys):
    # argparse reads a separate value that starts with '-' as an option
    path = write(tmp_path, "u1.oct", "field q\n0 1 0 0 0 0 0 0\n")
    assert cli.main(["limit", path, "--lambda=-1,1,0"]) == 0
    assert capsys.readouterr().out.startswith("lambda = (-1,1,0)\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["limit", path, "--lambda", "-1,1,0"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_command(capsys):
    assert cli.main(["verify"]) == 0
    assert capsys.readouterr().out == VERIFY_OUT


def test_group_command(capsys, g2f2_array):
    assert cli.main(["group", "--q", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "order 12096\n"
    assert "elapsed" in captured.err
    assert cli.main(["group", "--q", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "restricted to q = 2" in captured.err


def test_examples_command(capsys, g2f2_array):
    assert cli.main(["paper-examples"]) == 0
    assert capsys.readouterr().out == EXAMPLES_OUT


def test_byte_determinism(tmp_path, capsys):
    path = write(tmp_path, "w.oct", WITNESS_P5)
    cli.main(["eval", path, "--degree", "4"])
    first = capsys.readouterr().out
    cli.main(["eval", path, "--degree", "4"])
    second = capsys.readouterr().out
    assert first == second
    cli.main(["verify"])
    v1 = capsys.readouterr().out
    cli.main(["verify"])
    v2 = capsys.readouterr().out
    assert v1 == v2


# runs every argv of sys.argv[1] through cli.main in this interpreter,
# printing each exit code after its output
_SEED_SCRIPT = """\
import json, sys
from splitoct import cli
for argv in json.loads(sys.argv[1]):
    print("exit", cli.main(argv))
"""


def test_stdout_is_the_same_under_every_hash_seed(tmp_path):
    """stdout of eval, separate, limit and verify does not depend on the
    hash seed: the factor-id order and set iteration are the same in
    every process."""
    fp = write(tmp_path, "fp.oct", "field p=7\n1 2 0 3 0 0 5 6\n0 4 1 0 2 0 0 3\n"
               "6 0 0 1 1 5 2 0\n")
    qa = write(tmp_path, "qa.oct", "field q\n1/2 0 -3 0 1 0 2/3 0\n"
               "0 1 0 0 -1 0 0 5\n")
    qb = write(tmp_path, "qb.oct", "field q\n0 1/2 0 -3 0 1 0 2/3\n"
               "5 0 1 0 0 -1 0 0\n")
    argvs = [["eval", fp, "--family", "S0", "--degree", "5"],
             ["eval", qa, "--family", "S", "--degree", "5"],
             ["separate", qa, qb, "--degree", "4"],
             ["limit", qa, "--lambda=0,1,-1"],
             ["verify"]]
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _SEED_SCRIPT, json.dumps(argvs)],
                              env=env, capture_output=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].decode().count("\nexit 0\n") == len(argvs)


# interns the variables z[4,8], ..., z[1,1] before anything else, so
# their primes run against the order of their ids
_REVERSED_ATOMS = """\
from splitoct.scalars import _ATOMS, QQ, PolynomialRing, var_id
ring = PolynomialRing(QQ)
for i in (4, 3, 2, 1):
    for j in range(8, 0, -1):
        ring.var(i, j)
assert _ATOMS == [var_id(i, j) for i in (4, 3, 2, 1) for j in range(8, 0, -1)]
"""

# prints polynomials of four octonions after the argvs of _SEED_SCRIPT
_PRINTED_POLYNOMIALS = """
from splitoct import invariants as inv
from splitoct.scalars import QQ, PolynomialRing
ring = PolynomialRing(QQ)
f = inv.descriptor_polynomial(inv.Descriptor("tr", (1, 2, 4)), ring)
print(f, inv.psi(f), f.variables(), f.multidegree(4), sep="\\n")
print((ring.var(4, 8) - ring.var(1, 1) + 2) ** 3)
"""


def test_stdout_does_not_depend_on_the_order_atoms_are_coded():
    """stdout of verify and paper-examples, and the repr of polynomials,
    is the same when the variables get their primes in reverse order:
    every order that reaches output comes from decoded monomials, never
    from codes."""
    argvs = json.dumps([["verify"], ["paper-examples"]])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    outs = [subprocess.run([sys.executable, "-c",
                            first + _SEED_SCRIPT + _PRINTED_POLYNOMIALS, argvs],
                           env=env, capture_output=True, check=True).stdout
            for first in ("", _REVERSED_ATOMS)]
    assert outs[0] == outs[1]
    assert outs[0].decode().count("\nexit 0\n") == 2
    assert "z[1,1]^3" in outs[0].decode()


def test_missing_file(capsys):
    assert cli.main(["eval", "/nonexistent/file.oct"]) == 2
    capsys.readouterr()


def _refused(argv, capsys, fragment):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert fragment in captured.err


def test_refusals_exit_2(tmp_path, capsys):
    _refused(["eval", write(tmp_path, "x.oct", "field x\n0 0 0 0 0 0 0 0\n")],
             capsys, "bad field spec")
    one = write(tmp_path, "one.oct", WITNESS_P5)
    two = write(tmp_path, "two.oct", WITNESS_P5 + "0 0 0 0 0 0 0 0\n")
    _refused(["separate", one, two], capsys, "different tuple lengths")
    _refused(["eval", one, "--degree", "0"], capsys, "need n >= 1 and d >= 1")


def test_verify_reports_a_failing_skew_row(monkeypatch, capsys):
    # a combination path that is off by one must fail the skew row
    real = sy.q_prime
    monkeypatch.setattr(sy, "q_prime", lambda *z, path: (
        real(*z, path=path) + (1 if path == "combination" else 0)))
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert out == VERIFY_OUT.replace("skew-symmetrization            pass",
                                     "skew-symmetrization            FAIL")


def test_examples_command_reports_a_failing_row(monkeypatch, capsys, g2f2_array):
    monkeypatch.setattr(suite, "CHECKS", suite.CHECKS + [("always-fails", lambda: False)])
    assert cli.main(["paper-examples"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2].split() == ["always-fails", "FAIL"]
    assert out[-1] == "29 checks, 28 passed"


_DIGEST_FIELDS = ("q", "p=2", "p=5", "p=1000003")
# z-order positions carrying nonzero entries: everything; alpha, u1, v2,
# v3, beta; alpha, u2, u3, v1, beta
_DIGEST_SUPPORTS = (range(8), (0, 1, 5, 6, 7), (0, 2, 3, 4, 7))
_DIGEST_LAMBDAS = ("1,-1,0", "-1,1,0", "0,0,0", "2,-1,-1", "0,1,-1",
                   "-2,1,1")
_DIGEST_BAD_LAMBDAS = ("1,1,0", "1,-1", "1,-1,0,0")


def _digest_rows(n, support):
    """n rows of eight (numerator, denominator) pairs in z-order."""
    return [[((3 * i + 5 * j + 1) * (i + 2) % 11 - 5 if j in support else 0,
              1 + j % 3) for j in range(8)] for i in range(n)]


def _digest_text(spec, rows):
    def token(num, den):
        return "%d" % num if spec == "p=2" or num == 0 else "%d/%d" % (num, den)
    return "field %s\n%s\n" % (spec, "\n".join(
        " ".join(token(*c) for c in row) for row in rows))


def _hbar_rows(rows):
    # (alpha, u, v, beta) -> (beta, -v, -u, alpha): the same orbit
    def neg(c):
        return (-c[0], c[1])
    return [[row[7]] + [neg(c) for c in row[4:7]] + [neg(c) for c in row[1:4]]
            + [row[0]] for row in rows]


def _swap12_rows(rows):
    # u1 <-> u2 and v1 <-> v2 in the last member keep its trace and norm
    last = rows[-1]
    swapped = [last[0], last[2], last[1], last[3], last[5], last[4], last[6],
               last[7]]
    return rows[:-1] + [swapped]


def _shift_rows(rows):
    last = rows[-1]
    return rows[:-1] + [[(last[0][0] + last[0][1], last[0][1])] + last[1:]]


def test_cli_stdout_frozen_digest(tmp_path):
    """Exit codes and stdout of eval, separate and limit on generated
    tuple files over QQ, GF(2), GF(5) and GF(1000003), n = 1..5, hash to
    a frozen value: any change to what these commands print fails here."""
    h = hashlib.sha256()

    def run(label, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        h.update(("%s\n%d\n%s" % (label, code, out.getvalue())).encode())

    for spec in _DIGEST_FIELDS:
        for n in range(1, 6):
            for s, support in enumerate(_DIGEST_SUPPORTS):
                label = "%s n=%d support=%d" % (spec, n, s)
                rows = _digest_rows(n, support)
                path = write(tmp_path, "a.oct", _digest_text(spec, rows))
                for family in ("S", "S0"):
                    run(label + " eval " + family,
                        ["eval", path, "--family", family])
                # a refused lambda prints nothing whatever the tuple
                for lam in _DIGEST_LAMBDAS + (_DIGEST_BAD_LAMBDAS if n == 1
                                              else ()):
                    run(label + " limit " + lam,
                        ["limit", path, "--lambda=" + lam])
                for name, other in (("hbar", _hbar_rows(rows)),
                                    ("swap12", _swap12_rows(rows)),
                                    ("shift", _shift_rows(rows))):
                    b = write(tmp_path, "b.oct", _digest_text(spec, other))
                    run(label + " separate " + name, ["separate", path, b])
    assert h.hexdigest() == \
        "6430b65079894d5b71172ca4605d3aa88e9ee6cfda7beb59f79fac91f3260e72"


def test_cli_stdout_frozen_digest_over_large_primes(tmp_path):
    """The digest of test_cli_stdout_frozen_digest over GF(10^14+31) and
    GF(1125899906842597), the largest prime below 2^50, n = 1..5: both
    fields run the int64 lanes by a float-quotient mulmod, and the digest
    was frozen from the scalar loop that ran them before."""
    h = hashlib.sha256()

    def run(label, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        h.update(("%s\n%d\n%s" % (label, code, out.getvalue())).encode())

    for spec in ("p=100000000000031", "p=1125899906842597"):
        for n in range(1, 6):
            for s, support in enumerate(_DIGEST_SUPPORTS):
                label = "%s n=%d support=%d" % (spec, n, s)
                rows = _digest_rows(n, support)
                path = write(tmp_path, "a.oct", _digest_text(spec, rows))
                for family in ("S", "S0"):
                    run(label + " eval " + family,
                        ["eval", path, "--family", family])
                for lam in _DIGEST_LAMBDAS:
                    run(label + " limit " + lam,
                        ["limit", path, "--lambda=" + lam])
                for name, other in (("hbar", _hbar_rows(rows)),
                                    ("swap12", _swap12_rows(rows)),
                                    ("shift", _shift_rows(rows))):
                    b = write(tmp_path, "b.oct", _digest_text(spec, other))
                    run(label + " separate " + name, ["separate", path, b])
    assert h.hexdigest() == \
        "7d38f855494eb4a70895b6d23ee4a08d6ac3561f973b020db967bd5ec613dd50"


def test_cli_stdout_frozen_digest_over_primes_above_2_50(tmp_path):
    """The digest of test_cli_stdout_frozen_digest_over_large_primes over
    GF(2^61-1) and GF(10^24+7), n = 1..5: residues too wide for the int64
    rows, held as Python ints; the digest was frozen from the scalar loop
    that ran them before they joined the lane walker."""
    h = hashlib.sha256()

    def run(label, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        h.update(("%s\n%d\n%s" % (label, code, out.getvalue())).encode())

    for spec in ("p=%d" % (2 ** 61 - 1), "p=%d" % (10 ** 24 + 7)):
        for n in range(1, 6):
            for s, support in enumerate(_DIGEST_SUPPORTS):
                label = "%s n=%d support=%d" % (spec, n, s)
                rows = _digest_rows(n, support)
                path = write(tmp_path, "a.oct", _digest_text(spec, rows))
                for family in ("S", "S0"):
                    run(label + " eval " + family,
                        ["eval", path, "--family", family])
                for lam in _DIGEST_LAMBDAS:
                    run(label + " limit " + lam,
                        ["limit", path, "--lambda=" + lam])
                for name, other in (("hbar", _hbar_rows(rows)),
                                    ("swap12", _swap12_rows(rows)),
                                    ("shift", _shift_rows(rows))):
                    b = write(tmp_path, "b.oct", _digest_text(spec, other))
                    run(label + " separate " + name, ["separate", path, b])
    assert h.hexdigest() == \
        "6da94aeacaf6b8e8e46172dc24517d43be10a2898211938308a93e36a4adb6f7"
