"""Design guards: the dense matrix helpers are a test oracle only, the
spectrum, the Jordan blocks and the reflexive search are stored and run in
integers, the report builds no ``Fraction`` and sigma has one integer
form, the package exports
exactly what its `__init__` imports, a failed identity has one exception
type, the CLI has one command path, monomial reduction has one integer
step, which the ``reduction`` suite takes once from omega_k to each of its
classes, comparing their weighted sum with A0 + theta * A_inf in that
step's layout and building no element, and keeps each reduced class in
that layout, read back as an element only by ``_unscaled`` (which the
suite never calls), both integer kernels read one record, so the
connection module looks the spectrum up only where it builds that record,
multiplication by f is the derivative's operator, the ``bernstein`` and
``birkhoff`` suites run that derivative themselves on the pass's record,
so no command builds a ``GElement``, no module relies
on ``assert``, ``report.to_json`` is the only JSON writer and its
template the only place that writes a ``{"num", "den"}`` leaf, every
cache is bounded, neither importing the CLI nor running its commands
loads ``dataclasses``, ``inspect``, ``fractions`` or the ``json``
package, and the conjugation, the metric identities, the index check and
the unit-fraction search each have one copy.

The runtime stores A0, A_inf, g and N in structured form:
``FrobeniusInitialData`` has no dense ``a0`` or ``metric`` view and
``frobenius`` no ``_dense`` builder, since only the ``frobenius`` report
writes dense rows.  Likewise a ``FiltrationReport`` keeps one level per
index and no ``hp``, ``gp``, ``m`` or ``w`` sets: only the ``filtrations``
report asks ``index_sets`` for them, and sorts none.  The ``saito`` and
``orthogonality`` suites check the opposite filtration and the
orthogonality on those levels, so ``filtrations`` has no per-level check
function and no exception of its own.  ``linalg`` is kept as the dense exact reference that
tests compare against, so no other package module may import it.
"""

import ast
import importlib
import inspect
import subprocess
import sys
import textwrap
from pathlib import Path

import weightspec
from weightspec import (
    FiltrationReport,
    FrobeniusInitialData,
    GElement,
    JordanBlock,
    Spectrum,
    WeightSystem,
    cli,
    filtrations,
    frobenius,
    gaussmanin,
    reflexive,
    report,
    spectrum,
    verify,
)

PACKAGE = Path(weightspec.__file__).parent


def _imports(tree: ast.AST, name: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if name in module or any(a.name == name for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(name in a.name.split(".") for a in node.names):
                return True
    return False


def test_guard_detects_every_import_form():
    for source in (
        "from . import linalg",
        "from .linalg import char_poly",
        "from weightspec import linalg",
        "from weightspec.linalg import matmul",
        "import weightspec.linalg",
    ):
        assert _imports(ast.parse(source), "linalg"), source
    assert not _imports(ast.parse("from . import report"), "linalg")
    for source in ("from fractions import Fraction", "import fractions"):
        assert _imports(ast.parse(source), "fractions"), source


def test_runtime_does_not_import_linalg():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    offenders = [
        path.name
        for path in modules
        if path.name != "linalg.py"
        and _imports(ast.parse(path.read_text(), filename=str(path)), "linalg")
    ]
    assert offenders == []


def test_initial_data_keeps_no_dense_view():
    for gone in ("a0", "metric"):
        assert not hasattr(FrobeniusInitialData, gone), gone
    assert "_dense" not in _functions(frobenius)


def test_filtrations_keep_one_level_per_index():
    # a FiltrationReport holds levels; FiltrationReport.index_sets writes
    # the sets, members ascending, so the report sorts none of them
    for gone in ("hp", "gp", "m", "w"):
        assert not hasattr(FiltrationReport, gone), gone
    assert not _calls(_functions(filtrations)["saito_filtration"], "frozenset")
    functions = _functions(report)
    for name in ("filtrations_payload", "filtration_rows"):
        sorts = [
            ast.unparse(node)
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "sorted" or getattr(node.func, "attr", None) == "sort")
        ]
        # only the primitive block starts, a frozenset, are put in order
        assert sorts == ["sorted(report.primitive)"], name
        assert _calls(functions[name], "index_sets"), name


def test_filtration_identities_live_in_their_suites():
    # the saito and orthogonality suites check the opposite filtration and
    # the orthogonality on the index levels, every level at once
    for gone in ("saito_identity_check", "orthogonality_check", "UnknownEigenvalueClass"):
        assert not hasattr(filtrations, gone), gone
        assert gone not in weightspec.__all__, gone


def _init_imports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_exports_match_imports():
    for name in weightspec.__all__:
        assert hasattr(weightspec, name), name
    assert set(weightspec.__all__) - {"__version__"} == _init_imports()
    assert len(weightspec.__all__) == len(set(weightspec.__all__))
    for gone in (
        "PairingMatrix",
        "pairing_matrix",
        "ExponentVector",
        "nilpotent_matrix",
        "index_bijection",
        "table_compare",
    ):
        assert not hasattr(weightspec, gone), gone


def test_integer_spectrum_and_reflexive_search():
    assert list(Spectrum._fields) == [
        "denominator",
        "scaled",
        "ladders",
    ]
    assert not hasattr(spectrum, "merged_ladder")
    assert not hasattr(GElement, "from_terms")
    path = PACKAGE / "reflexive.py"
    assert not _imports(ast.parse(path.read_text(), filename=str(path)), "fractions")


def _calls(tree: ast.AST, name: str) -> bool:
    return any(
        isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
        for node in ast.walk(tree)
    )


def test_guard_detects_fraction_calls():
    for source in ("Fraction(1, 2)", "fractions.Fraction(x)", "f = [Fraction(v) for v in s]"):
        assert _calls(ast.parse(source), "Fraction"), source
    assert not _calls(ast.parse("x.numerator // math.gcd(a, b)"), "Fraction")


def test_integer_values_inside_fraction_only_at_the_edge():
    # sigma has one form, the ints sigma(k) * D of Spectrum.sigma_scaled
    for view in ("values", "fractional_parts", "spectral_numbers"):
        assert not hasattr(Spectrum, view), view
    assert list(JordanBlock._fields) == ["value", "start", "size"]
    assert list(FrobeniusInitialData._fields) == [
        "denominator",
        "sigma_scaled",
        "partner",
        "unit_index",
    ]
    for gone in ("a_inf", "sigma"):
        assert not hasattr(FrobeniusInitialData, gone), gone
    path = PACKAGE / "report.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _calls(tree, "Fraction")
    assert not _imports(tree, "fractions")
    for name in ("frobenius.py", "filtrations.py"):
        path = PACKAGE / name
        assert not _imports(ast.parse(path.read_text(), filename=str(path)), "fractions"), name


def test_one_identity_exception():
    for gone in ("BijectionViolation", "DecompositionFailure", "FiltrationViolation", "InitialDataViolation"):
        assert not hasattr(weightspec, gone), gone
    assert "IdentityViolation" in weightspec.__all__
    assert issubclass(weightspec.IdentityViolation, RuntimeError)
    assert not hasattr(filtrations, "_validate_report")


def test_one_command_path():
    # add_common was nested in _build_parser, so look for any def of the names
    path = Path(cli.__file__)
    defined = {
        node.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
    }
    for gone in ("_emit", "_run_verify", "_weight_system", "add_common"):
        assert gone not in defined, gone
    assert not hasattr(GElement, "__neg__")
    assert "__str__" not in vars(WeightSystem)


def _functions(module) -> dict[str, ast.FunctionDef]:
    path = Path(module.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_one_reduction_step():
    # the step loop and the derivative kernel read sigma(k) * D once per term
    functions = _functions(gaussmanin)
    step_loops = sorted(
        name
        for name, node in functions.items()
        if any(
            isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None) == "sigma_scaled"
            for loop in ast.walk(node)
            if isinstance(loop, ast.For)
            for sub in ast.walk(loop)
        )
    )
    assert step_loops == ["_derive", "_step"]
    assert _calls(functions["reduce_monomial"], "_step")
    # the suite takes one step to each class from omega_k, with no walk from
    # omega_0: it compares the integer states, certifies the step against
    # the derivative and compares the f route's summed state with
    # A0 + theta * A_inf in the step layout, so it builds no element
    assert not hasattr(gaussmanin, "_reduce_walk")
    assert not hasattr(verify, "_reduction_targets")
    suite = _functions(verify)["verify_reduction"]
    for callee in ("_step", "_derive"):
        assert _calls(suite, callee), callee
    names = {node.id for node in ast.walk(suite) if isinstance(node, ast.Name)}
    assert not names & {"_unscaled", "f_action", "GElement"}
    assert not hasattr(verify, "_unscaled") and not hasattr(verify, "f_action")
    path = Path(verify.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    for name in ("reduce_monomial", "_raw"):
        assert not _calls(tree, name), name
    # a reduced class stays a _step state: _unscaled is its one reader and
    # the one place that raises D*mu to a power, and the suite adds states
    # scaled alike with no common denominator or lowest terms
    assert not hasattr(gaussmanin, "_over_one_denominator")
    powers = sorted(
        name
        for name, node in functions.items()
        if any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow) for sub in ast.walk(node))
    )
    assert powers == ["_unscaled"]
    for name in ("gcd", "lcm"):
        assert not _calls(suite, name), name


def test_connection_reads_the_spectrum_through_its_record():
    # both integer kernels read the record _step_data builds, so a public
    # function builds it once and hands it down
    functions = _functions(gaussmanin)
    callers = sorted(name for name, node in functions.items() if _calls(node, "spectrum_direct"))
    assert callers == ["_step_data"]


def test_no_command_builds_an_element():
    # the Bernstein product and the Birkhoff split run in the verify suites
    # on integers, so verify has no GElement to build and gaussmanin keeps
    # no wrapper that builds a second step record per pass
    path = Path(verify.__file__)
    assert not _imports(ast.parse(path.read_text(), filename=str(path)), "GElement")
    assert not hasattr(verify, "GElement")
    for name in ("bernstein_check", "birkhoff_matrices"):
        assert not hasattr(gaussmanin, name) and name not in weightspec.__all__, name


def test_one_copy_of_each_index_computation():
    # the conjugation is built once, as JordanData.conj; the metric
    # identities are checked only where initial_data builds g, and of the
    # suites only orthogonality reads the partner; one validator checks a
    # basis index; the unit-fraction search is one loop
    assert not hasattr(filtrations, "_conjugation")
    path = Path(verify.__file__)
    assert not _imports(ast.parse(path.read_text(), filename=str(path)), "metric_violations")
    readers = [name for name, node in _functions(verify).items() if _calls(node, "metric_partner")]
    assert readers == ["verify_orthogonality"]
    assert "built(initial_data)" in ast.unparse(_functions(verify)["verify_pairing"])
    assert _calls(_functions(frobenius)["metric_partner"], "_check_index")
    assert _calls(_functions(filtrations)["conjugate_index"], "_check_index")
    assert inspect.isgeneratorfunction(reflexive._unit_fraction_tuples)


def _reads(tree: ast.AST, attr: str) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == attr for node in ast.walk(tree))


def test_one_f_operator():
    # f acts as -tau^(-1) tau_dtau, and every route applies the derivative
    # through the one integer kernel: the library's tau_dtau and f_action,
    # and exactly the four verify suites that read the derivative; no
    # package module reads sigma(k) as a Fraction view, which would be an
    # attribute named spectral_numbers
    functions = _functions(gaussmanin)
    for caller in ("tau_dtau", "f_action"):
        assert _calls(functions[caller], "_derive"), caller
    suites = sorted(name for name, node in _functions(verify).items() if _calls(node, "_derive"))
    assert suites == ["verify_bernstein", "verify_birkhoff", "verify_reduction", "verify_v_order"]
    assert _reads(ast.parse("spec.spectral_numbers[k]"), "spectral_numbers")
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    readers = [
        path.name
        for path in modules
        if _reads(ast.parse(path.read_text(), filename=str(path)), "spectral_numbers")
    ]
    assert readers == []


def _asserts(tree: ast.AST) -> bool:
    return any(isinstance(node, ast.Assert) for node in ast.walk(tree))


def test_no_assert_statements():
    # python -O strips assert, so an invariant must raise a named exception
    assert _asserts(ast.parse("def f(x):\n    assert x"))
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if _asserts(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert offenders == []


def test_one_json_writer():
    # json.dumps stays in the tests, as the oracle of report.to_json
    assert _calls(ast.parse("json.dumps(doc, indent=2)"), "dumps")
    assert _calls(ast.parse("from json import dumps\ndumps(doc)"), "dumps")
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(_calls(ast.parse(path.read_text(), filename=str(path)), name) for name in ("dump", "dumps"))
    ]
    assert offenders == []


def _rational_dicts(tree: ast.AST) -> list[int]:
    """Lines that build a dict with a "num" or "den" key, as a literal or
    through ``dict(...)``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            keys = [k.arg for k in node.keywords]
        else:
            continue
        if {"num", "den"} & set(keys):
            lines.append(node.lineno)
    return lines


def _key_texts(tree: ast.AST) -> list[str]:
    """The string constants, docstrings aside, that hold a "num" or "den"
    JSON key."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
        and ('"num"' in node.value or '"den"' in node.value)
    ]


def test_rationals_leave_as_integer_columns():
    # a rational is ints over one denominator up to the emitter, which alone
    # writes the {"num", "den"} leaves, from its template
    for source in ('{"num": n, "den": d}', '{"den": d, **rest}', "dict(num=n, den=d)"):
        assert _rational_dicts(ast.parse(source)), source
    assert not _rational_dicts(ast.parse('{"numerator": n, "k": d}'))
    assert _key_texts(ast.parse("t = f'{i}  \"num\": %d'"))
    assert not _key_texts(ast.parse('def f():\n    """{"num": n}"""'))
    assert not hasattr(report, "encode_rational")
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = _rational_dicts(tree)
        if lines or (path.name != "report.py" and _key_texts(tree)):
            offenders[path.name] = lines
    assert offenders == {}
    method = ast.parse(textwrap.dedent(inspect.getsource(report.RationalColumn.texts)))
    template = _key_texts(method)
    assert template and template == _key_texts(ast.parse((PACKAGE / "report.py").read_text()))


def _is_lru_cache(node: ast.AST) -> bool:
    return getattr(node, "id", None) == "lru_cache" or getattr(node, "attr", None) == "lru_cache"


def _unbounded_caches(tree: ast.AST) -> list[int]:
    """Lines that use functools.cache, or lru_cache with no maxsize or with
    maxsize=None."""
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and _is_lru_cache(n.func)]
    called = {id(call.func) for call in calls}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if getattr(node.value, "id", None) == "functools":
                lines.append(node.lineno)
        elif isinstance(node, (ast.Name, ast.Attribute)) and _is_lru_cache(node):
            if id(node) not in called:  # bare @lru_cache: the default, not a chosen bound
                lines.append(node.lineno)
    for call in calls:
        sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
        if not sizes or (isinstance(sizes[0], ast.Constant) and sizes[0].value is None):
            lines.append(call.lineno)
    return lines


def test_guard_detects_every_unbounded_cache_form():
    for source in (
        "from functools import cache",
        "import functools\n@functools.cache\ndef f(): pass",
        "@lru_cache\ndef f(): pass",
        "@functools.lru_cache\ndef f(): pass",
        "@lru_cache()\ndef f(): pass",
        "@lru_cache(maxsize=None)\ndef f(): pass",
        "@functools.lru_cache(None)\ndef f(): pass",
        "g = lru_cache(maxsize=None)(f)",
    ):
        assert _unbounded_caches(ast.parse(source)), source
    for source in (
        "from functools import lru_cache\n@lru_cache(maxsize=1024)\ndef f(): pass",
        "@functools.lru_cache(64)\ndef f(): pass",
        "@lru_cache(maxsize=BOUND)\ndef f(): pass",
    ):
        assert not _unbounded_caches(ast.parse(source)), source


def test_every_cache_is_bounded():
    # an unbounded cache grows for the life of the process
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    offenders = {
        path.name: lines
        for path in modules
        if (lines := _unbounded_caches(ast.parse(path.read_text(), filename=str(path))))
    }
    assert offenders == {}
    cached = [
        value
        for path in modules
        for value in vars(importlib.import_module(f"weightspec.{path.stem}")).values()
        if hasattr(value, "cache_parameters")
    ]
    assert cached
    for value in cached:
        maxsize = value.cache_parameters()["maxsize"]
        assert type(maxsize) is int and maxsize > 0, (value.__qualname__, maxsize)


# importing dataclasses costs about as much as the rest of start-up: it
# pulls in inspect, ast, dis and tokenize, and each frozen dataclass execs
# its generated methods; the records are NamedTuples instead.  fractions
# (which loads decimal and numbers) and the json package were the largest
# imports left: the commands write rationals from ints, and report escapes
# strings with the C function json.encoder wraps, from _json.  Fraction is
# the API edge, imported inside the functions that return one; the
# fresh-interpreter tests below are the check, as they see every import a
# command makes, at module level or in a call
HEAVY_MODULES = (
    "dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal", "numbers", "json"
)


def test_no_module_imports_dataclasses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    offenders = [
        path.name
        for path in modules
        if _imports(ast.parse(path.read_text(), filename=str(path)), "dataclasses")
    ]
    assert offenders == []


def _newly_loaded(*calls: list[str]) -> str:
    """The sorted list, as printed, of the HEAVY_MODULES that a fresh
    interpreter loads to import weightspec.cli and run ``cli.run`` on each
    call, each of which must exit 0.  It compares sys.modules before and
    after, so a module that site already loaded does not count against the
    package."""
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from weightspec import cli\n"
        "for call in sys.argv[2:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if cli.run(call.split()) != 0:\n"
        "            sys.exit(f'exit code not 0: {call}')\n"
        f"print(sorted(set({HEAVY_MODULES!r}) & (set(sys.modules) - before)))\n"
    )
    argv = [sys.executable, "-c", script, str(PACKAGE.parent), *(" ".join(c) for c in calls)]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    return result.stdout


def test_cli_import_loads_no_heavy_module():
    assert _newly_loaded() == "[]\n"


def test_cli_commands_load_no_heavy_module():
    # one call of each command and format the benchmark workloads make, so
    # an import is not merely moved from start-up into the first call
    calls = [
        ["verify", "-w", "2,3,7", "--all", "--format", "json"],
        *(
            [command, "-w", "7,11,13", "--format", "json"]
            for command in ("spectrum", "jordan", "filtrations", "frobenius")
        ),
        *(["reflexive", "-n", "3", "--format", fmt] for fmt in ("json", "csv", "table")),
    ]
    assert _newly_loaded(*calls) == "[]\n"
