"""CLI surface: exit codes, pure-JSON stdout, pipeline composability and
byte-level determinism."""

import ast
import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

import ideallat

IDEAL_EX = {
    "nvars": 2,
    "modulus": None,
    "generators": [
        {"nvars": 2, "modulus": None, "terms": [{"e": [2, 0], "c": "3"}]},
        {"nvars": 2, "modulus": None, "terms": [{"e": [2, 0], "c": "5"}]},
        {"nvars": 2, "modulus": None, "terms": [{"e": [0, 1], "c": "1"}]},
    ],
}

A_GENS = [{"nvars": 2, "modulus": None, "terms": [{"e": [1, 0], "c": "6"}]}]

HASH_PARAMS = {
    "p": "17",
    "d": "1",
    "m": "5",
    "eta": "2",
    "order": "lex",
    "ideal": {
        "nvars": 1,
        "modulus": None,
        "generators": [
            {
                "nvars": 1,
                "modulus": None,
                "terms": [
                    {"e": [2], "c": "1"},
                    {"e": [1], "c": "1"},
                    {"e": [0], "c": "1"},
                ],
            }
        ],
    },
}

ALGO1_PARAMS = {
    "ideal": HASH_PARAMS["ideal"],
    "order": "lex",
    "p": "17",
    "d": "1",
    "m": "3",
    "eta": "2",
    "A": [{"nvars": 1, "modulus": None, "terms": [{"e": [1], "c": "1"}, {"e": [0], "c": "-1"}]}],
    "g": {"nvars": 1, "modulus": None, "terms": [{"e": [1], "c": "12"}, {"e": [0], "c": "-12"}]},
}


# HASH_PARAMS over Z[x]/<x^8+1> with p = 12289 and m = 14, which pass the
# strict modulus bound, and the sha256 of `hash keygen --seed 7` stdout for
# them, with and without --strict
STRICT_PARAMS = dict(
    HASH_PARAMS,
    p="12289",
    m="14",
    ideal=dict(
        HASH_PARAMS["ideal"],
        generators=[{"nvars": 1, "modulus": None, "terms": [{"e": [8], "c": "1"}, {"e": [0], "c": "1"}]}],
    ),
)
STRICT_KEY_SHA256 = "a55f98bf1b4604e018e1f5e009a002bef5235eb9dda52bcc363e45fad0b43a9f"

# sha256 of the `hash digest` stdout for the bytes a5 3c and of the
# `hash collide` stdout, on the key of `hash keygen --seed 7` for HASH_PARAMS
DIGEST_SHA256 = "5ddd14e37136fc04eaf5c1ff7968c786f4fd3546956e1ca375adc8ec4ceb92ac"
COLLIDE_SHA256 = "f74df738e2007b952ffdbbd6dd60dc364eb8bf179e23cbc9d77508f6e18bc6e5"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "ideallat.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def ideal_file(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(IDEAL_EX))
    return str(path)


@pytest.fixture
def a_file(tmp_path):
    path = tmp_path / "A.json"
    path.write_text(json.dumps(A_GENS))
    return str(path)


class TestGroebnerCommand:
    def test_worked_example(self, ideal_file):
        code, out, err = run_cli("groebner", "--ideal", ideal_file, "--order", "lex", "--short")
        assert code == 0
        doc = json.loads(out)
        assert doc["elements"] == ["x^2", "y"]
        assert doc["monic"] is True

    @pytest.mark.parametrize("short", [False, True])
    def test_completes_without_representations(self, tmp_path, monkeypatch, capsys, short):
        """The command prints no representations, so it does not track them,
        and prints the document a tracked completion gives."""
        from ideallat import cli, jsonio
        from ideallat.groebner import short_reduce

        obj = {"nvars": 2, "modulus": None, "generators": ["3*x^2 + y", "2*x*y - y^2 + 4"]}
        path = tmp_path / "ideal2.json"
        path.write_text(json.dumps(obj))
        tracks = []
        real = cli.buchberger

        def recording(*args, **kwargs):
            tracks.append(kwargs.get("track", True))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "buchberger", recording)
        assert cli.main(["groebner", "--ideal", str(path)] + ["--short"] * short) == 0
        assert tracks == [False]
        gb = real(jsonio.ideal_from_obj(obj), jsonio.order_from_str("lex"), track=True)
        gb = short_reduce(gb) if short else gb
        expected = {"order": "lex", "elements": [str(g) for g in gb.elements], "monic": gb.is_monic}
        assert capsys.readouterr().out == jsonio.dumps(expected) + "\n"

    def test_unknown_flag_is_usage_error(self, ideal_file):
        code, out, err = run_cli("groebner", "--ideal", ideal_file, "--frobnicate")
        assert code == 1
        assert out == ""

    def test_missing_file_is_domain_error(self):
        code, out, err = run_cli("groebner", "--ideal", "/nonexistent.json")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("budget", ["inf", "-inf", "1e400", "0", "-3"])
    def test_budget_must_be_finite_and_positive(self, ideal_file, budget):
        code, out, err = run_cli("groebner", "--ideal", ideal_file, "--budget=" + budget)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("order", ["lex:a", "lex:", "grevlex:1,,2"])
    def test_malformed_order_priority_exits_2(self, ideal_file, order):
        code, out, err = run_cli("groebner", "--ideal", ideal_file, "--order", order)
        assert (code, out, err) == (2, "", "error: malformed monomial order %r\n" % order)


class TestQuotientCommand:
    def test_info_default_verb(self, ideal_file):
        code, out, _ = run_cli("quotient", "--ideal", ideal_file, "--order", "lex")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"N": "2", "basis": ["1", "x"], "free": True, "monic": True}

    def test_phi(self, ideal_file):
        code, out, _ = run_cli("quotient", "phi", "--ideal", ideal_file, "--poly", "6*x")
        assert code == 0
        assert json.loads(out) == {"vector": ["0", "6"]}

    def test_order_must_cover_every_variable(self, tmp_path):
        path = tmp_path / "ideal3.json"
        path.write_text(json.dumps({"nvars": 3, "modulus": None, "generators": ["x^2", "y^2", "z^2"]}))
        code, out, err = run_cli("quotient", "info", "--ideal", str(path), "--order", "lex:2,1")
        assert (code, out) == (2, "")
        assert err == "error: monomial order ranks 2 variables, the ideal has 3\n"

    def test_malformed_variable_count_is_domain_error(self, tmp_path):
        path = tmp_path / "ideal_nv.json"
        path.write_text(json.dumps({"nvars": "two", "modulus": None, "generators": ["x"]}))
        code, out, err = run_cli("quotient", "info", "--ideal", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed ideal object:") and err.count("\n") == 1

    @pytest.mark.parametrize("modulus", ["4", "0", pytest.param("1" + "0" * 400, id="10^400")])
    @pytest.mark.parametrize("gens", [["2*x^2+1"], ["x^2+1"]])
    def test_modulus_must_be_prime(self, tmp_path, modulus, gens):
        path = tmp_path / "ideal_mod.json"
        path.write_text(json.dumps({"nvars": 1, "modulus": modulus, "generators": gens}))
        code, out, err = run_cli("quotient", "info", "--ideal", str(path))
        assert (code, out) == (2, "")
        assert err == "error: modulus %s is not prime\n" % modulus

    def test_uncertified_modulus_exits_2(self, tmp_path):
        # a strong pseudoprime to all 13 Miller-Rabin bases, beyond their exact range
        path = tmp_path / "ideal_mod.json"
        modulus = "3317044064679887385961981"
        path.write_text(json.dumps({"nvars": 1, "modulus": modulus, "generators": ["x^2+1"]}))
        code, out, err = run_cli("quotient", "info", "--ideal", str(path))
        assert (code, out) == (2, "")
        assert err == "error: cannot certify modulus %s as prime\n" % modulus


class TestLatticeCommands:
    def test_extract_then_minima_pipeline(self, ideal_file, a_file, tmp_path):
        code, out, _ = run_cli("lattice", "extract", "--ideal", ideal_file, "--A", a_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["hnf"] == [["0", "6"]]
        lat_file = tmp_path / "L.json"
        lat_file.write_text(json.dumps([[int(x) for x in row] for row in doc["hnf"]]))
        code, out, _ = run_cli("lattice", "minima", "--lattice", str(lat_file), "--k", "1", "--box", "4")
        assert code == 0
        assert json.loads(out)["lambdas"] == ["6"]

    def test_budget_exit_code(self, tmp_path):
        lat_file = tmp_path / "L.json"
        lat_file.write_text(json.dumps([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
        code, out, err = run_cli(
            "lattice", "minima", "--lattice", str(lat_file), "--k", "1",
            "--box", "50", "--budget", "1000",
        )
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_one_is_domain_error(self, tmp_path, k):
        lat_file = tmp_path / "L.json"
        lat_file.write_text(json.dumps([[3, 1], [0, 2]]))
        code, out, err = run_cli("lattice", "minima", "--lattice", str(lat_file), "--k", k, "--box", "2")
        assert (code, out) == (2, "")
        assert err == "error: the number of minima must be at least 1, got %s\n" % k

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, tmp_path, threads):
        lat_file = tmp_path / "L.json"
        lat_file.write_text(json.dumps([[2, 0], [0, 3]]))
        code, out, err = run_cli(
            "lattice", "minima", "--lattice", str(lat_file), "--k", "1", "--threads", threads,
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("usage error:") and err.count("\n") == 1



# the public names of the package, by defining module
PUBLIC = {
    "cyclic": "Tensor cyclic_shift element_of is_multivariate_cyclic tensor_of",
    "errors": "ArityError DegenerateCollisionError DomainError IdealLatError InfeasibleError"
    " InfiniteDimensionError NumericDegeneracyError ParseError RepresentationError"
    " ResourceError ValidationError",
    "groebner": "GroebnerBasis Ideal buchberger ideal_membership normal_form short_reduce",
    "hardness": "ExpansionReport VarietyContext cyclic_to_cyclotomic cyclotomic_sum_ideal"
    " expansion_factor incspp_step incspp_via_collisions max_coefficient max_substitution"
    " norm_mod primality_certificate spp_bruteforce ssub_bruteforce variety_cyclotomic",
    "hashing": "HashKey HashParams digest find_collision_bruteforce keygen validate verify_collision",
    "lattice": "IntegerLattice MinimaReport hnf ideal_to_lattice is_full_rank_ideal is_saturated"
    " minima_bruteforce snf",
    "poly": "MonomialOrder Polynomial format_polynomial inf_norm leading_data maxdeg parse_polynomial",
    "quotient": "QuotientRing build_quotient coordinates from_coordinates lattice_ideal"
    " multiplication_matrix quotient_mul",
}

CORE = {"cli", "errors", "groebner", "jsonio", "poly"}
HARDNESS = CORE | {"quotient", "lattice", "hardness"}
HASH = CORE | {"quotient", "hashing"}

# argv with @name for a file of the cli_files fixture, and the ideallat
# submodules the command loads
COMMAND_MODULES = [
    (["groebner", "--ideal", "@ideal", "--short"], CORE),
    (["quotient", "info", "--ideal", "@ideal"], CORE | {"quotient"}),
    (["quotient", "phi", "--ideal", "@ideal", "--poly", "6*x"], CORE | {"quotient"}),
    (["lattice", "extract", "--ideal", "@ideal", "--A", "@A"], CORE | {"quotient", "lattice"}),
    (["lattice", "minima", "--lattice", "@L", "--k", "1", "--box", "2"], CORE | {"quotient", "lattice"}),
    (["cyclic", "check", "--lattice", "@L", "--shape", "2"], CORE | {"cyclic", "quotient", "lattice"}),
    (["cyclic", "shift", "--tensor", "@T", "--axis", "2"], CORE | {"cyclic"}),
    (["hardness", "expansion", "--ideal", "@ideal", "--k", "2,2", "--samples", "20", "--seed", "1"], HARDNESS),
    (["hardness", "spp", "--ideal", "@ideal", "--A", "@A"], HARDNESS),
    (["hardness", "maxsub", "--r", "2", "--poly", "2-x"], HARDNESS),
    (["hardness", "algo1", "--params", "@algo1", "--seed", "7"], HARDNESS | {"hashing"}),
    (["hash", "keygen", "--params", "@params", "--seed", "7"], HASH),
    (["hash", "digest", "--key", "@key", "--in", "@msg"], HASH),
    (["hash", "collide", "--key", "@key"], HASH),
]

# runs one command through cli.main and prints its exit code and the
# ideallat submodules it loaded
MODULES_PROBE = """
import contextlib, io, json, sys
from ideallat import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m.partition(".")[2] for m in sys.modules if m.startswith("ideallat."))]))
"""

PACKAGE_MODULES = ["ideallat"] + [
    "ideallat." + path.stem
    for path in sorted(pathlib.Path(ideallat.__file__).parent.glob("*.py"))
    if path.stem != "__init__"
]


def run_python(code, *args):
    """Runs ``code`` in a fresh interpreter and returns its stdout."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def cli_files(tmp_path):
    files = {
        "ideal": IDEAL_EX,
        "A": A_GENS,
        "L": [[3, 1], [0, 2]],
        "T": {"shape": [2, 3], "data": [1, 2, 3, 4, 5, 6]},
        "algo1": ALGO1_PARAMS,
        "params": HASH_PARAMS,
    }
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(obj))
    paths["msg"] = tmp_path / "msg.bin"
    paths["msg"].write_bytes(b"\x02")
    paths["key"] = tmp_path / "key.json"
    code, _, err = run_cli("hash", "keygen", "--params", str(paths["params"]), "--seed", "7", "-o", str(paths["key"]))
    assert code == 0, err
    return {name: str(path) for name, path in paths.items()}


class TestStartup:
    def test_import_does_not_load_numpy(self):
        run_python("import ideallat, sys; assert 'numpy' not in sys.modules")

    def test_import_loads_no_submodule(self):
        out = run_python("import ideallat, sys; print(sorted(m for m in sys.modules if 'ideallat' in m))")
        assert out == "['ideallat']\n"

    @pytest.mark.parametrize("module", PACKAGE_MODULES)
    def test_every_module_imports_first(self, module):
        """The package once loaded every module in one fixed order, which
        would hide an import cycle; each must import on its own."""
        run_python("import " + module)

    @pytest.mark.parametrize(
        "argv, modules", COMMAND_MODULES, ids=[" ".join(argv[:2]) for argv, _ in COMMAND_MODULES]
    )
    def test_command_loads_only_its_modules(self, cli_files, argv, modules):
        argv = [cli_files[a[1:]] if a.startswith("@") else a for a in argv]
        code, loaded = json.loads(run_python(MODULES_PROBE, *argv))
        assert code == 0
        assert set(loaded) == modules

    def test_public_names_resolve_lazily(self):
        code = """
import importlib, json, sys
import ideallat
public = json.loads(sys.argv[1])
print(json.dumps({
    "all": sorted(ideallat.__all__),
    "same": all(
        getattr(ideallat, name) is getattr(importlib.import_module("ideallat." + module), name)
        for module, names in public.items()
        for name in names.split()
    ),
    "dir": set(ideallat.__all__) <= set(dir(ideallat)),
    "version": ideallat.__version__,
}))
"""
        out = json.loads(run_python(code, json.dumps(PUBLIC)))
        names = sorted(name for names in PUBLIC.values() for name in names.split())
        assert len(names) == 65
        assert out == {"all": names, "same": True, "dir": True, "version": "0.1.0"}

    def test_star_import_and_unknown_names(self):
        code = """
import json
from ideallat import *
import ideallat
try:
    ideallat.no_such_name
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([sorted(n for n in ideallat.__all__ if n in globals()), missing]))
"""
        star, missing = json.loads(run_python(code))
        assert star == sorted(name for names in PUBLIC.values() for name in names.split())
        assert missing == "module 'ideallat' has no attribute 'no_such_name'"


def test_cli_imports_no_private_library_name():
    """The CLI reaches the library through its public names (dunders such
    as ``__version__`` included) only."""
    tree = ast.parse(pathlib.Path(ideallat.__file__).with_name("cli.py").read_text())
    private = [
        "%s%s.%s" % ("." * node.level, node.module or "", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ideallat"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


class TestCyclicCommands:
    def test_check_and_shift(self, tmp_path):
        lat_file = tmp_path / "L.json"
        lat_file.write_text(json.dumps([[1, 1], [0, 2]]))
        code, out, _ = run_cli("cyclic", "check", "--lattice", str(lat_file), "--shape", "2")
        assert code == 0
        assert json.loads(out) == {"cyclic": True}
        tensor_file = tmp_path / "T.json"
        tensor_file.write_text(json.dumps({"shape": [2, 3], "data": [1, 2, 3, 4, 5, 6]}))
        code, out, _ = run_cli("cyclic", "shift", "--tensor", str(tensor_file), "--axis", "2")
        assert code == 0
        assert json.loads(out)["data"] == ["3", "1", "2", "6", "4", "5"]

    @pytest.mark.parametrize("rows", [[], [[1, 0]]])
    def test_check_rejects_an_empty_axis(self, tmp_path, rows):
        lat_file = tmp_path / "L.json"
        lat_file.write_text(json.dumps(rows))
        code, out, err = run_cli("cyclic", "check", "--lattice", str(lat_file), "--shape", "2,0")
        assert (code, out, err) == (2, "", "error: tensor axes must have positive length\n")


class TestHardnessCommands:
    def test_expansion_requires_seed(self, ideal_file):
        code, out, err = run_cli("hardness", "expansion", "--ideal", ideal_file, "--k", "2,2")
        assert code == 1

    def test_spp(self, ideal_file, a_file):
        code, out, _ = run_cli("hardness", "spp", "--ideal", ideal_file, "--A", a_file, "--gamma", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"element": "6*x", "norm": "6"}

    @pytest.mark.parametrize("box", ["0", "-2"])
    def test_box_below_one_is_domain_error(self, ideal_file, a_file, box):
        code, out, err = run_cli("hardness", "spp", "--ideal", ideal_file, "--A", a_file, "--box=" + box)
        assert (code, out, err) == (2, "", "error: box must be at least 1\n")

    def test_maxsub(self):
        code, out, _ = run_cli("hardness", "maxsub", "--r", "2", "--poly", "2-x")
        assert code == 0
        assert json.loads(out)["maxsub"] == "3"

    def test_algo1(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(ALGO1_PARAMS))
        code, out, _ = run_cli("hardness", "algo1", "--params", str(params), "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["member"] is True

    @pytest.mark.parametrize("seed, h, h_norm", [("3", "x - 1", "1"), ("5", "-2*x - 1", "2")])
    def test_algo1_stdout(self, tmp_path, seed, h, h_norm):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(ALGO1_PARAMS))
        code, out, err = run_cli("hardness", "algo1", "--params", str(params), "--seed", seed)
        assert (code, err) == (0, "")
        assert out == (
            '{"g_norm":"12","gaussian_width":"0.25503486164919731","h":"%s","h_norm":"%s",'
            '"member":true}\n' % (h, h_norm)
        )

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("d", "0", "domain bound: d = 0 but log(2d) needs d >= 1"),
            ("m", "0", "key length: m = 0 must be positive"),
            ("m", "-1", "key length: m = -1 must be positive"),
            ("eta", "0", "expansion bound: eta = 0.0 must be finite and positive"),
            ("eta", "nan", "expansion bound: eta = nan must be finite and positive"),
            ("p", "0", "modulus: p = 0 is not prime"),
        ],
    )
    def test_algo1_parameter_ranges(self, tmp_path, name, value, message):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(dict(ALGO1_PARAMS, **{name: value})))
        code, out, err = run_cli("hardness", "algo1", "--params", str(params), "--seed", "3")
        assert (code, out, err) == (2, "", "error: %s\n" % message)

    def test_algo1_generators_must_be_a_list(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(dict(ALGO1_PARAMS, A=5)))
        code, out, err = run_cli("hardness", "algo1", "--params", str(params), "--seed", "7")
        assert (code, out, err) == (2, "", 'error: expected a list of polynomials for "A"\n')

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--samples", "-5", "samples must be at least 1"),
            ("--samples", "0", "samples must be at least 1"),
            ("--coeff-bound", "-1", "coefficient bound must be at least 1"),
            ("--coeff-bound", "0", "coefficient bound must be at least 1"),
        ],
    )
    def test_expansion_sampling_must_be_positive(self, tmp_path, flag, value, message):
        ideal = tmp_path / "ideal.json"
        ideal.write_text(json.dumps({"nvars": 1, "modulus": None, "generators": ["x^2+1"]}))
        code, out, err = run_cli(
            "hardness", "expansion", "--ideal", str(ideal), "--k", "9", "--seed", "1", flag, value
        )
        assert (code, out, err) == (2, "", "error: %s\n" % message)


class TestHashCommands:
    def test_keygen_builds_its_quotient_once(self, tmp_path, monkeypatch, capsys):
        import ideallat.hashing as hashing
        from ideallat import cli

        # p = 12289 passes the strict bound for m = 14 over Z[x]/<x^8+1>
        x8_plus_1 = {"e": [8], "c": "1"}, {"e": [0], "c": "1"}
        ideal = dict(HASH_PARAMS["ideal"], generators=[
            {"nvars": 1, "modulus": None, "terms": list(x8_plus_1)}
        ])
        params_file = tmp_path / "hp.json"
        params_file.write_text(json.dumps(dict(HASH_PARAMS, p="12289", m="14", ideal=ideal)))
        builds = []
        real = hashing.build_quotient

        def counting(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hashing, "build_quotient", counting)
        keys = []
        for flags in ([], ["--strict"]):
            key_file = tmp_path / ("key%d.json" % len(keys))
            argv = ["hash", "keygen", "--params", str(params_file), "--seed", "7",
                    "-o", str(key_file), *flags]
            builds.clear()
            assert cli.main(argv) == 0
            assert len(builds) == 1
            keys.append(key_file.read_bytes())
        capsys.readouterr()
        assert keys[0] == keys[1]

    @pytest.mark.parametrize("flags", [[], ["--strict"]])
    def test_keygen_stdout(self, tmp_path, flags):
        params_file = tmp_path / "hp.json"
        params_file.write_text(json.dumps(STRICT_PARAMS))
        code, out, err = run_cli("hash", "keygen", "--params", str(params_file), "--seed", "7", *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == STRICT_KEY_SHA256

    @pytest.mark.parametrize("strict", [False, True])
    def test_library_keygen_is_the_cli_key(self, monkeypatch, strict):
        """``keygen(params, 7, strict)`` gives the key `hash keygen` prints,
        over the one quotient its checks build."""
        import ideallat.hashing as hashing
        from ideallat import jsonio

        builds = []
        real = hashing.build_quotient

        def counting(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hashing, "build_quotient", counting)
        key = hashing.keygen(jsonio.params_from_obj(STRICT_PARAMS), 7, strict=strict)
        assert len(builds) == 1
        out = jsonio.dumps(jsonio.key_to_obj(key)) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == STRICT_KEY_SHA256

    def test_keygen_digest_collide(self, tmp_path):
        params_file = tmp_path / "hp.json"
        params_file.write_text(json.dumps(HASH_PARAMS))
        key_file = tmp_path / "key.json"
        code, out, _ = run_cli(
            "hash", "keygen", "--params", str(params_file), "--seed", "7", "-o", str(key_file)
        )
        assert code == 0
        assert json.loads(out)["p"] == "17"
        assert json.loads(key_file.read_text())["p"] == "17"

        blob = tmp_path / "msg.bin"
        blob.write_bytes(b"\x02")
        code, out, _ = run_cli("hash", "digest", "--key", str(key_file), "--in", str(blob))
        assert code == 0
        assert "digest" in json.loads(out)

        code, out, _ = run_cli("hash", "collide", "--key", str(key_file), "--budget", "1e6")
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True

    def test_digest_and_collide_stdout(self, tmp_path):
        params_file = tmp_path / "hp.json"
        params_file.write_text(json.dumps(HASH_PARAMS))
        key_file = tmp_path / "key.json"
        code, _, _ = run_cli(
            "hash", "keygen", "--params", str(params_file), "--seed", "7", "-o", str(key_file)
        )
        assert code == 0
        blob = tmp_path / "msg.bin"
        blob.write_bytes(b"\xa5\x3c")
        for argv, pin in [
            (["digest", "--in", str(blob)], DIGEST_SHA256),
            (["collide"], COLLIDE_SHA256),
        ]:
            code, out, err = run_cli("hash", argv[0], "--key", str(key_file), *argv[1:])
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == pin

    @pytest.mark.parametrize("verb", ["digest", "collide"])
    def test_key_needs_m_elements(self, tmp_path, verb):
        params = tmp_path / "hp.json"
        params.write_text(json.dumps(HASH_PARAMS))
        code, out, _ = run_cli("hash", "keygen", "--params", str(params), "--seed", "7")
        assert code == 0
        key = json.loads(out)
        key["a"] = key["a"][:-1]
        key_file = tmp_path / "key.json"
        key_file.write_text(json.dumps(key))
        blob = tmp_path / "msg.bin"
        blob.write_bytes(b"x")
        args = ["--in", str(blob)] if verb == "digest" else []
        code, out, err = run_cli("hash", verb, "--key", str(key_file), *args)
        assert (code, out) == (2, "")
        assert err == 'error: malformed key object: "a" has 4 entries but m = 5\n'

    def test_unwritable_key_file_is_domain_error(self, tmp_path):
        params_file = tmp_path / "hp.json"
        params_file.write_text(json.dumps(HASH_PARAMS))
        key_file = tmp_path / "missing" / "key.json"
        code, out, err = run_cli(
            "hash", "keygen", "--params", str(params_file), "--seed", "7", "-o", str(key_file)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write %s: " % key_file) and err.count("\n") == 1

    @pytest.mark.parametrize("p", ["0", "4"])
    def test_key_modulus_must_be_prime(self, tmp_path, p):
        params = tmp_path / "hp.json"
        params.write_text(json.dumps(HASH_PARAMS))
        code, out, _ = run_cli("hash", "keygen", "--params", str(params), "--seed", "7")
        assert code == 0
        key_file = tmp_path / "key.json"
        key_file.write_text(json.dumps(dict(json.loads(out), p=p)))
        code, out, err = run_cli("hash", "collide", "--key", str(key_file))
        assert (code, out) == (2, "")
        assert err == "error: modulus %s is not prime\n" % p

    def test_missing_input_file_is_domain_error(self, tmp_path):
        params_file = tmp_path / "hp.json"
        params_file.write_text(json.dumps(HASH_PARAMS))
        key_file = tmp_path / "key.json"
        code, _, _ = run_cli(
            "hash", "keygen", "--params", str(params_file), "--seed", "7", "-o", str(key_file)
        )
        assert code == 0
        missing = tmp_path / "missing.bin"
        code, out, err = run_cli("hash", "digest", "--key", str(key_file), "--in", str(missing))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read %s: " % missing) and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["digest", "collide"])
    def test_key_arity_mismatch_exits_2(self, tmp_path, verb):
        """An ArityError is neither a DomainError nor a ResourceError and
        still exits 2 with one line."""
        params = tmp_path / "hp.json"
        params.write_text(json.dumps(HASH_PARAMS))
        code, out, _ = run_cli("hash", "keygen", "--params", str(params), "--seed", "7")
        assert code == 0
        key = json.loads(out)
        a0 = key["a"][0]
        key["a"][0] = dict(a0, nvars=2, terms=[dict(t, e=t["e"] + [0]) for t in a0["terms"]])
        key_file = tmp_path / "key.json"
        key_file.write_text(json.dumps(key))
        blob = tmp_path / "msg.bin"
        blob.write_bytes(b"x")
        args = ["--in", str(blob)] if verb == "digest" else []
        code, out, err = run_cli("hash", verb, "--key", str(key_file), *args)
        assert (code, out) == (2, "")
        assert err == "error: variable counts differ: 2 vs 1\n"

    def test_invalid_params_exit_2(self, tmp_path):
        bad = dict(HASH_PARAMS, m="1")
        params_file = tmp_path / "hp.json"
        params_file.write_text(json.dumps(bad))
        code, out, err = run_cli("hash", "keygen", "--params", str(params_file), "--seed", "7")
        assert code == 2
        assert out == ""
        assert "collision richness" in err


class TestDeterminism:
    def test_byte_identical_reruns(self, ideal_file, a_file, tmp_path):
        params_file = tmp_path / "hp.json"
        params_file.write_text(json.dumps(HASH_PARAMS))
        lat_file = tmp_path / "L.json"
        lat_file.write_text(json.dumps([[3, 1, 0], [0, 2, 5], [1, 1, 1]]))
        invocations = [
            ("groebner", "--ideal", ideal_file, "--short"),
            ("quotient", "--ideal", ideal_file),
            ("hardness", "expansion", "--ideal", ideal_file, "--k", "1,1",
             "--samples", "200", "--seed", "7"),
            ("hash", "keygen", "--params", str(params_file), "--seed", "9"),
            ("lattice", "minima", "--lattice", str(lat_file), "--k", "2", "--box", "3"),
        ]
        for argv in invocations:
            runs = {run_cli(*argv) for _ in range(2)}
            assert len(runs) == 1
            code, out, _ = next(iter(runs))
            assert code == 0
            json.loads(out)

    def test_thread_count_has_no_effect(self, tmp_path):
        lat_file = tmp_path / "L.json"
        lat_file.write_text(json.dumps([[3, 1, 0], [0, 2, 5], [1, 1, 1]]))
        outs = set()
        for threads in ("1", "4"):
            code, out, _ = run_cli(
                "lattice", "minima", "--lattice", str(lat_file), "--k", "3",
                "--box", "3", "--threads", threads,
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1
