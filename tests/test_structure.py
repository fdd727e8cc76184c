"""Structural rules on the package source. Each rule is a function that takes
the package's module paths and returns its sorted violations as (path, line,
what). Tier-1 asserts that each rule reads every module of src/bcsim and
finds nothing there, and that it flags its fixture, the violation it was
added for, copied from the tree before the rule landed. Run as a script, it
runs the named rules over src/bcsim, prints each violation as
``path:line: what`` and exits 1 if there is any, 2 on an unknown rule:

    python3 tests/test_structure.py private_imports dead_helpers
"""
import ast
import functools
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bcsim"
WIDTHS = {"ATTACK_MAX_N", "HONEST_MAX_N"}
RECORDS = {"NOVY", "TWO_PROVER"}
RULES = {}


def _rule(find):
    """Register find as a rule that returns its violations sorted."""
    @functools.wraps(find)
    def rule(paths):
        return sorted(find(paths))
    RULES[find.__name__] = rule
    return rule


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _trees(paths):
    """(path, parsed module) for each path, in path order."""
    return [(path, ast.parse(path.read_text(), str(path))) for path in sorted(paths)]


def _walk(paths):
    """(path, node) for every node of every module."""
    return [(path, node) for path, tree in _trees(paths) for node in ast.walk(tree)]


def _dotted(node):
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


@_rule
def private_imports(paths):
    """A module's _names are its own; another module that needs one should
    get a public name for it. Flags each import of a _name from the
    package, on any line of a parenthesized import, and each _name read off
    a package module."""
    trees = _trees(paths)
    stems = {path.stem for path, _ in trees}
    for path, tree in trees:
        modules = stems | {f"bcsim.{stem}" for stem in stems}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "bcsim"):
                for alias in node.names:
                    if _private(alias.name):
                        yield path, node.lineno, f"imports {alias.name}"
                    elif alias.name in stems:
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                modules |= {alias.asname for alias in node.names
                            if alias.asname and alias.name.startswith("bcsim.")}
        yield from ((path, node.lineno, f"uses {_dotted(node)}") for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and _private(node.attr)
                    and _dotted(node.value) in modules)


def _defines(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return []


def _references(stmt):
    for sub in ast.walk(stmt):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name


@_rule
def dead_helpers(paths):
    """A module-level _name that nothing else in the package references is
    left over from deleted code: delete it too. Tests are no references, so
    a helper kept only for a test is flagged. A statement's use of its own
    name (a recursive call, say) does not count, nor does a use by a dead
    statement, so a chain of helpers that only call each other is found
    whole."""
    defined, users = [], {}
    for path, tree in _trees(paths):
        for stmt in tree.body:
            defined += [(path, stmt.lineno, name, stmt) for name in _defines(stmt) if _private(name)]
            for name in set(_references(stmt)):
                users.setdefault(name, set()).add(stmt)
    dead = set()
    while found := [(path, line, name, stmt) for path, line, name, stmt in defined
                    if stmt not in dead and not users.get(name, set()) - dead - {stmt}]:
        dead |= {stmt for *_, stmt in found}
        yield from ((path, line, f"{name} is defined but never referenced")
                    for path, line, name, _ in found)


@_rule
def protocol_name_tests(paths):
    """engine.PROTOCOLS spells each <family>-<role> name once and maps it to
    the (family, is_attack) pair a config stores. Anywhere else, a
    comparison with a .protocol or a family or protocol name, a str method
    on a .protocol or with such a name as argument, or, outside engine.py,
    an f-string that puts a "-" after a .name or a string constant equal to
    such a name, is a second owner of the naming scheme: read config.family
    and config.is_attack, or iterate engine.PROTOCOLS, instead."""
    from bcsim.engine import PROTOCOLS
    names = set(PROTOCOLS) | {family.name for family, _ in PROTOCOLS.values()}
    methods = {name for name in dir(str) if not name.startswith("_")}

    def protocol(node):
        return isinstance(node, ast.Attribute) and node.attr == "protocol"

    def named(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names

    for path, node in _walk(paths):
        outside = path.name != "engine.py"
        if isinstance(node, ast.Compare) and any(
                protocol(operand) or named(operand) for operand in (node.left, *node.comparators)):
            yield path, node.lineno, "compares a protocol name"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in methods
              and (protocol(node.func.value) or any(map(named, node.args)))):
            yield path, node.lineno, f"calls str.{node.func.attr} on a protocol name"
        elif outside and isinstance(node, ast.JoinedStr) and any(
                isinstance(part, ast.FormattedValue) and isinstance(part.value, ast.Attribute)
                and part.value.attr == "name" and isinstance(after, ast.Constant)
                and after.value.startswith("-") for part, after in zip(node.values, node.values[1:])):
            yield path, node.lineno, "builds a protocol name"
        elif outside and named(node):
            yield path, node.lineno, "spells a protocol name"


@_rule
def width_checks(paths):
    """engine.check_scenario holds every rule on n, b and psi, the role
    bounds and each family's narrowest n among them. Outside engine.py, a
    comparison that names ATTACK_MAX_N, HONEST_MAX_N or a .narrowest is a
    second owner of a width rule: call check_scenario instead."""
    for path, node in _walk(paths):
        if path.name != "engine.py" and isinstance(node, ast.Compare) and any(
                (isinstance(sub, ast.Name) and sub.id in WIDTHS)
                or (isinstance(sub, ast.Attribute) and sub.attr in WIDTHS | {"narrowest"})
                for sub in ast.walk(node)):
            yield path, node.lineno, "compares with a width bound outside engine.check_scenario"


@_rule
def family_decisions(paths):
    """A family is its engine.Family record, its role module and its one
    harness.FAMILY_ENTRIES entry. A comparison with NOVY or TWO_PROVER as an
    operand, bare or as an attribute, is a second owner of a per-family
    decision, and .foreign, the field that named the other family's config
    field, is gone: read the record's fields instead."""
    for path, node in _walk(paths):
        if isinstance(node, ast.Compare) and any(
                (isinstance(operand, ast.Name) and operand.id in RECORDS)
                or (isinstance(operand, ast.Attribute) and operand.attr in RECORDS)
                for operand in (node.left, *node.comparators)):
            yield path, node.lineno, "compares with a family record"
        elif isinstance(node, ast.Attribute) and node.attr == "foreign":
            yield path, node.lineno, "reads .foreign"


@_rule
def validate_calls(paths):
    """ScenarioConfig runs every check on its fields when it is made, so an
    invalid config never exists, and validate() only returns the config,
    for callers outside the package: a .validate() call inside it checks a
    config a second time."""
    for path, node in _walk(paths):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "validate"):
            yield path, node.lineno, "calls validate on a config that was checked when it was made"


@_rule
def attack_commits_measure(paths):
    """Both attack commits draw every announced value from weights cached
    per (psi, n) and build a SparseState only for the labels their z
    leaves, so a .measure or .branches call inside a function named
    attack_commit would measure a state a cached pick already stands for."""
    for path, func in _walk(paths):
        if isinstance(func, ast.FunctionDef) and func.name == "attack_commit":
            yield from ((path, node.lineno, f"calls .{node.func.attr} in attack_commit")
                        for node in ast.walk(func)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("measure", "branches"))


# -- tests --------------------------------------------------------------

MODULES = ["__init__.py", "__main__.py", "cli.py", "engine.py", "gf2.py", "harness.py", "novy.py",
           "perm.py", "qsim.py", "selftest.py", "twoprover.py"]


def _write(root, files):
    """Write files, {name: {first line: source}}, under root, each source
    at its line, blank lines between, and return the paths written."""
    root.mkdir(parents=True, exist_ok=True)
    for name, pieces in files.items():
        lines = []
        for first, source in sorted(pieces.items()):
            assert len(lines) < first, "pieces overlap"
            lines += [""] * (first - 1 - len(lines)) + source.strip("\n").split("\n")
        (root / name).write_text("\n".join(lines) + "\n")
    return [root / name for name in files]


# Each rule's fixture, the violation it was added for as the tree before the
# rule held it (verbatim lines at their own line numbers), the exact
# (file, line, what) list the rule gives for it, and a near miss it passes.
FIXTURES = {
    # 0f96ca9^: harness read novy's parity helper.
    "private_imports": (
        {"harness.py": {32: """
from . import engine, gf2
from .engine import ProtocolOutcome, Transcript
from .gf2 import BitVector
from .novy import _parity_fn
from .perm import ToyPermutation
"""}},
        [("harness.py", 35, "imports _parity_fn")],
        {"harness.py": {1: """
from . import engine, gf2, novy
from .gf2 import dot as _dot
parity = novy.parity_fn, novy.__name__, gf2.dot, _dot
"""}, "novy.py": {1: "_parity = bool\ndef parity_fn(h):\n    return _parity(h)"}}),
    # 9b295c4^: the prefix-tree sweep, once its caller _novy_systems is gone,
    # and a constant nothing reads.
    "dead_helpers": (
        {"harness.py": {379: '''
def _split_ys(h: int, classes: list) -> list:
    """Split each ``(rs, ys)`` class, order kept, by the parity of h & y."""
    split = []
    for rs, ys in classes:
        halves: tuple[list, list] = ([], [])
        for y in ys:
            halves[gf2.dot(h, y)].append(y)
        split += [(rs + (0,), halves[0]), (rs + (1,), halves[1])]
    return split


def _hash_sweep(n: int, m: int, classes: list,
                hs: tuple[int, ...] = (), rows: gf2.Echelon | None = None):
    """Walk the prefix tree of independent m-row tuples, splitting classes.

    Each row h replaces the ``(rs, ys)`` classes by ``_split_ys(h,
    classes)``. Yields ``(hs, classes)`` once per m-tuple hs, rows
    ascending per level. From ``[((), every y ascending)]`` with m = n - 1,
    each leaf class is the two solutions of hs . y = rs, ascending.
    """
    if len(hs) == m:
        yield hs, classes
        return
    for h, extended in _independent_rows(n, rows or gf2.Echelon(n)):
        yield from _hash_sweep(n, m, _split_ys(h, classes), hs + (h,), extended)
''', 405: "_SYSTEMS_AT_3 = 168"}},
        [("harness.py", 379, "_split_ys is defined but never referenced"),
         ("harness.py", 390, "_hash_sweep is defined but never referenced"),
         ("harness.py", 405, "_SYSTEMS_AT_3 is defined but never referenced")],
        {"harness.py": {1: """
def _split_ys(h, classes):
    return classes

def _hash_sweep(n, classes):
    return _hash_sweep(n - 1, _split_ys(n, classes)) if n else classes

_SYSTEMS_AT_3 = 168
""", 9: "systems = _hash_sweep(3, []), _SYSTEMS_AT_3"}}),
    # 2d84324^: harness tested the protocol name's prefix and compared it;
    # 982bab1^: the selftest spelled a protocol name.
    "protocol_name_tests": (
        {"harness.py": {102: "class ScenarioConfig:",
                        114: '    def validate(self) -> "ScenarioConfig":',
                        143: """
        if self.protocol.startswith("novy"):
            if self.n < 2:
                raise ConfigError("novy scenarios need n >= 2")
""", 629: """
def _honest_table(config: ScenarioConfig, prior: dict[int, float]) -> dict[int, float]:
    if config.protocol == "novy-honest":
        return _novy_honest_table(config.n, prior, config.permutation())
    return _twop_honest_table(config.n, prior, config.allow_zero_m1)
"""},
         "selftest.py": {59: """
def novy_attack_completeness() -> CriterionOutcome:
    def body():
        config = ScenarioConfig(protocol="novy-attack", n=6, psi=HADAMARD,
                                unveil=True, trials=10_000, seed=2026)
"""}},
        [("harness.py", 143, "calls str.startswith on a protocol name"),
         ("harness.py", 143, "spells a protocol name"),
         ("harness.py", 630, "compares a protocol name"),
         ("harness.py", 630, "spells a protocol name"),
         ("selftest.py", 61, "spells a protocol name")],
        {"harness.py": {1: """
family, attack = engine.PROTOCOLS[config.protocol]
if config.is_attack and family.name.startswith(prefix):
    label = f"{family.name} n={config.n}"
"""}, "engine.py": {1: """
PROTOCOLS = {f"{family.name}-{role}": (family, role == "attack") for family in (NOVY, TWO_PROVER)
             for role in ("honest", "attack")}
DEFAULT = "novy-attack"
"""}}),
    # 78a4583^: ScenarioConfig.validate held the role bounds and the
    # narrowest n beside check_scenario.
    "width_checks": (
        {"harness.py": {102: "class ScenarioConfig:",
                        114: '    def validate(self) -> "ScenarioConfig":',
                        118: "        if self.is_attack:",
                        133: """
            if self.n > ATTACK_MAX_N:
                raise ConfigError(f"attack scenarios need n <= {ATTACK_MAX_N}, got {self.n}")
        else:
            if not _is_int(self.b) or self.b not in (0, 1) or self.psi is not None:
                raise ConfigError("honest scenarios take b in {0, 1}, not psi")
            if self.n > HONEST_MAX_N:
                raise ConfigError(f"honest scenarios need n <= {HONEST_MAX_N}, got {self.n}")
        if not (_is_int(self.perm_a) and _is_int(self.perm_c)):
            raise ConfigError(f"perm a and c must be integers, got {self.perm_a!r}, {self.perm_c!r}")
        if self.n < family.narrowest:
            raise ConfigError(f"{family.name} scenarios need n >= {family.narrowest}")
"""}},
        [("harness.py", 133, "compares with a width bound outside engine.check_scenario"),
         ("harness.py", 138, "compares with a width bound outside engine.check_scenario"),
         ("harness.py", 142, "compares with a width bound outside engine.check_scenario")],
        {"harness.py": {1: """
engine.check_scenario(family, attack, self.n, self.b, self.psi)
if self.n > ENUM_MAX_N:
    bounds = (ATTACK_MAX_N, HONEST_MAX_N, family.narrowest)
"""}, "engine.py": {1: """
if n > ATTACK_MAX_N or n > HONEST_MAX_N or n < family.narrowest:
    raise ConfigError(n)
"""}}),
    # 28c859c^: validate compared the family with NOVY and read .foreign.
    "family_decisions": (
        {"harness.py": {95: "class ScenarioConfig:",
                        107: '    def validate(self) -> "ScenarioConfig":',
                        113: """
        default_perm = {"a": self.perm_a, "c": self.perm_c} == DEFAULT_PERM
        if family is NOVY:
            try:
                self.permutation()
            except ValueError as exc:
                hint = (f" (the default perm a={self.perm_a}, c={self.perm_c} needs n >= 3;"
                        ' pass "perm": {"a": odd a < 2^n, "c": c < 2^n})') if default_perm else ""
                raise ConfigError(f"invalid permutation: {exc}{hint}") from exc
        if not {"perm": default_perm, "allow_zero_m1": self.allow_zero_m1 is False}[family.foreign]:
            raise ConfigError(f"{family.foreign} does not apply to {self.protocol} scenarios")
"""}},
        [("harness.py", 114, "compares with a family record"),
         ("harness.py", 121, "reads .foreign"),
         ("harness.py", 122, "reads .foreign")],
        {"harness.py": {1: """
for other, entry in FAMILY_ENTRIES.items():
    if other is not family and entry.moved(self):
        raise ConfigError(f"{other.field} does not apply to {self.protocol} scenarios")
FAMILY_ENTRIES = {engine.NOVY: NOVY_ENTRY, TWO_PROVER: TWO_PROVER_ENTRY}
"""}}),
    # 73b6314^: from_dict validated the config it had just made.
    "validate_calls": (
        {"harness.py": {96: "class ScenarioConfig:",
                        151: '    @classmethod\n    def from_dict(cls, raw: dict) -> "ScenarioConfig":',
                        172: """
        perm = raw.get("perm", {})
        if not isinstance(perm, dict) or not set(perm) <= {"a", "c"}:
            raise ConfigError('perm must be {"a": int, "c": int}')
        fields.update((f"perm_{k}", v) for k, v in perm.items())
        config = cls(**fields).validate()
        for other in FAMILY_ENTRIES:  # to_dict would drop it
            if other is not config.family and other.field in raw:
                raise ConfigError(f"{other.field} does not apply to {config.protocol} scenarios")
        return config
"""}},
        [("harness.py", 176, "calls validate on a config that was checked when it was made")],
        {"harness.py": {1: """
class ScenarioConfig:
    def validate(self) -> "ScenarioConfig":
        return self
config = ScenarioConfig(**fields)
check = config.validate
"""}}),
    # b46651a^: novy's attack commit built the four labels z could leave and
    # measured them.
    "attack_commits_measure": (
        {"novy.py": {157: """
def attack_commit(psi: tuple[complex, complex], n: int, p: ToyPermutation,
                  rng: Random) -> NovyAttackState:
""", 185: """
    y0, y1 = system.solutions()
    pairs = sorted((p.inverse_int(y), y) for y in (y0, y1))
    layout = cached_layout((("B", 1), ("X", n), ("Y", n)))
    s = SparseState(layout, {(b << 2 * n) | (x << n) | y: amp
                             for b, amp in blocks for x, y in pairs}, check=False)
    z, _, s = s.measure(["B", "Y"], rng, lambda b, y: b ^ (y == y1))
    t.announce(ALICE, BOB, COMMIT, "z", z)
    return NovyAttackState(n=n, perm=p, state=s, z=z, y0=y0, y1=y1, transcript=t)
"""}},
        [("novy.py", 190, "calls .measure in attack_commit")],
        {"novy.py": {1: """
def attack_unveil(st, rng):
    b, _, s = st.state.measure(["B"], rng)
    return st.state.branches(["X"])
"""}}),
}


@pytest.mark.parametrize("rule", RULES)
def test_rule_reads_every_module_and_finds_nothing(rule, monkeypatch):
    read = []

    def spy(paths, parse=_trees):
        trees = parse(paths)
        read.extend(path.name for path, _ in trees)
        return trees

    monkeypatch.setitem(globals(), "_trees", spy)
    assert RULES[rule](SRC.glob("*.py")) == []
    assert sorted(read) == MODULES


def test_what_the_rules_look_for_still_exists():
    from bcsim import engine
    from bcsim.harness import ScenarioConfig
    commits = [path.name for path, node in _walk(SRC.glob("*.py"))
               if isinstance(node, ast.FunctionDef) and node.name == "attack_commit"]
    assert commits == ["novy.py", "twoprover.py"]
    assert all(isinstance(getattr(engine, name), engine.Family) for name in RECORDS)
    assert all(isinstance(getattr(engine, name), int) for name in WIDTHS)
    assert all(isinstance(family.narrowest, int) for family, _ in engine.PROTOCOLS.values())
    assert callable(ScenarioConfig.validate)


@pytest.mark.parametrize("rule", RULES)
def test_rule_flags_its_fixture_and_passes_its_near_miss(rule, tmp_path):
    fixture, expected, near_miss = FIXTURES[rule]
    assert RULES[rule](_write(tmp_path / "fixture", fixture)) == [
        (tmp_path / "fixture" / name, line, what) for name, line, what in expected]
    assert RULES[rule](_write(tmp_path / "near", near_miss)) == []


def test_private_imports_flags_a_private_name_read_off_a_module(tmp_path):
    source = FIXTURES["private_imports"][0]["harness.py"][32]
    harness, _ = _write(tmp_path, {
        "harness.py": {32: source.replace("from .novy import _parity_fn", "from . import novy"),
                       65: "parity = novy._parity_fn(h)"},
        "novy.py": {1: "def _parity_fn(h):\n    return h"}})
    assert private_imports([harness]) == []  # novy is a package module only beside it
    assert private_imports(tmp_path.glob("*.py")) == [(harness, 65, "uses novy._parity_fn")]


def test_attack_commit_rule_flags_branches_too(tmp_path):
    source = FIXTURES["attack_commits_measure"][0]["novy.py"]
    [path] = _write(tmp_path, {"novy.py": {line: piece.replace(".measure(", ".branches(")
                                           for line, piece in source.items()}})
    assert attack_commits_measure([path]) == [(path, 190, "calls .branches in attack_commit")]


def test_each_rule_has_exactly_one_ci_step():
    workflow = (SRC.parents[1] / ".github" / "workflows" / "tests.yml").read_text()
    steps = re.findall(r"^ *run: .*tests/test_structure\.py(.*)$", workflow, re.M)
    assert sorted(steps) == sorted(f" {rule}" for rule in RULES)


def _run(root, *rules):
    return subprocess.run([sys.executable, str(root / "tests" / "test_structure.py"), *rules],
                          cwd=root, capture_output=True, text=True, timeout=60)


def test_runner_exits_2_on_an_unknown_rule():
    done = _run(SRC.parents[1], "private_imports", "private_import")
    assert (done.returncode, done.stdout) == (2, "")
    assert "private_import" in done.stderr
    assert _run(SRC.parents[1]).returncode == 2


def test_runner_prints_each_violation_and_exits_1(tmp_path):
    (tmp_path / "tests").mkdir()
    shutil.copy(__file__, tmp_path / "tests")
    _write(tmp_path / "src" / "bcsim", {"harness.py": {
        **FIXTURES["private_imports"][0]["harness.py"], **FIXTURES["validate_calls"][0]["harness.py"]}})
    done = _run(tmp_path, "validate_calls", "private_imports")
    path = os.path.join("src", "bcsim", "harness.py")
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout == (f"{path}:176: calls validate on a config that was checked when it was made\n"
                           f"{path}:35: imports _parity_fn\n")
    assert _run(tmp_path, "attack_commits_measure").returncode == 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC.parent))  # protocol_name_tests reads this checkout's engine
    names = sys.argv[1:]
    unknown = [name for name in names if name not in RULES]
    if unknown or not names:
        print(f"usage: python3 tests/test_structure.py RULE..., where RULE is one of:"
              f" {', '.join(RULES)}" + (f" (unknown: {', '.join(unknown)})" if unknown else ""),
              file=sys.stderr)
        sys.exit(2)
    bad = [violation for name in names for violation in RULES[name](SRC.glob("*.py"))]
    for path, line, what in bad:
        print(f"{os.path.relpath(path)}:{line}: {what}")
    sys.exit(1 if bad else 0)
