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
WIDTHS = {"MAX_N"}
RECORDS = {"NOVY", "TWO_PROVER"}
# Each family's own config field, by its role module: the dataclass fields,
# the config file's field and the default they hold.
OWN_FIELDS = {"novy.py": {"perm", "perm_a", "perm_c", "DEFAULT_PERM"},
              "twoprover.py": {"allow_zero_m1"}}
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
    """engine.check_scenario holds every rule on n, b and psi, the width
    bound and each family's narrowest n among them. Outside engine.py, a
    comparison that names MAX_N or a .narrowest is a second owner of a
    width rule: call check_scenario instead."""
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
    """Both attack commits draw every announced value from its exact
    weight, 1/2 or 2^-n, and build a SparseState only for the labels their
    z leaves, so a .measure or .branches call inside a function named
    attack_commit would measure a state an exact pick already stands for."""
    for path, func in _walk(paths):
        if isinstance(func, ast.FunctionDef) and func.name == "attack_commit":
            yield from ((path, node.lineno, f"calls .{node.func.attr} in attack_commit")
                        for node in ast.walk(func)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("measure", "branches"))


@_rule
def dynamic_imports(paths):
    """Each module imports what it uses at its top, so the import graph is
    the one the source shows. A call of import_module or __import__, or an
    import statement inside a function, resolves a module by name as it
    runs: a config carries its family's role module instead."""
    for path, tree in _trees(paths):
        inner = {node for func in ast.walk(tree)
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))}
        for node in ast.walk(tree):
            if node in inner:
                yield path, node.lineno, "imports inside a function"
            elif isinstance(node, ast.Call) and (
                    name := _dotted(node.func).rpartition(".")[2]) in ("import_module", "__import__"):
                yield path, node.lineno, f"calls {name}"


@_rule
def own_fields(paths):
    """A family's own config field is known to its harness.FAMILY_ENTRIES
    entry, with the dataclass field and the helpers the entry names, and to
    its role module, whose roles take it. Outside harness.py, a name,
    attribute, argument, keyword or import of another family's field, or a
    string that names one as a word, is a second owner of it that a new
    family would have to edit: make it the entry's."""
    fields = set().union(*OWN_FIELDS.values())
    word = re.compile(r"\b(?:" + "|".join(sorted(fields)) + r")\b")
    for path, node in _walk(paths):
        if path.name == "harness.py":
            continue
        if isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, (ast.arg, ast.keyword)):
            names = {node.arg}
        elif isinstance(node, ast.alias):
            names = {node.name, node.asname}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = set(word.findall(node.value))
        else:
            continue
        for name in sorted(names & fields - OWN_FIELDS.get(path.name, set())):
            yield path, node.lineno, f"names {name}, a family's own field"


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
    # narrowest n beside check_scenario. Those two bounds are now MAX_N, so
    # only the narrowest n is flagged here; test_width_checks_flags_the_one_bound
    # flags the same comparisons of MAX_N.
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
        [("harness.py", 142, "compares with a width bound outside engine.check_scenario")],
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
    # 7273f0d: run_protocol imported each family's role module by its name.
    "dynamic_imports": (
        {"engine.py": {28: "from importlib import import_module", 288: '''
@lru_cache(maxsize=1)
def _roles() -> dict:
    """Each family's role module by record, each imported once; the modules import this one."""
    return {f: import_module(f".{f.module}", __package__) for f, _ in PROTOCOLS.values()}
'''}},
        [("engine.py", 291, "calls import_module")],
        {"harness.py": {1: "from . import novy, twoprover\nroles = {0: novy, 1: twoprover}"},
         "engine.py": {1: """
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    from .harness import ScenarioConfig
def run_protocol(config: "ScenarioConfig", rng):
    return config.roles.attack_recover
"""}}),
    # 0ccb5f5: check_scenario took and checked 2p's allow_zero_m1 for every family.
    "own_fields": (
        {"engine.py": {97: '''
def check_scenario(family: Family, attack: bool, n, b, psi,
                   allow_zero_m1=False) -> tuple[complex, complex] | None:
    """The rules on n, b, psi and a 2p allow_zero_m1, for a ``ScenarioConfig``
    as it is made and for every role commit before any draw: ConfigError
    unless n is an int in [narrowest, the role's bound], an honest role has
    the int 0 or 1 as b and no psi, an attack has no b and a psi of two
    numbers, finite and normalized once complex, and allow_zero_m1 is a
    bool, in every family; a bool is no int or number here. Returns an
    attack's psi as that complex pair."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"n must be a positive integer, got {shown(n)}")
    if attack:
        if psi is None or b is not None:
            raise ConfigError("attack scenarios take psi, not b")
        if not (isinstance(psi, (tuple, list)) and len(psi) == 2
                and _is_number(psi[0]) and _is_number(psi[1])):
            raise ConfigError(f"psi must be a pair of amplitudes, got {shown(psi)}")
        try:
            alpha, beta = complex(psi[0]), complex(psi[1])
            norm = abs(alpha) ** 2 + abs(beta) ** 2
        except OverflowError:
            raise ConfigError(f"psi amplitudes out of range: {shown(psi)}") from None
        if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
            raise ConfigError("psi amplitudes must be finite")
        if abs(norm - 1.0) > NORM_EPS:
            raise ConfigError("psi must be normalized")
        if n > ATTACK_MAX_N:
            raise ConfigError(f"attack scenarios need n <= {ATTACK_MAX_N}, got {shown(n)}")
    else:
        if not isinstance(b, int) or isinstance(b, bool) or b not in (0, 1) or psi is not None:
            raise ConfigError("honest scenarios take b in {0, 1}, not psi")
        if n > HONEST_MAX_N:
            raise ConfigError(f"honest scenarios need n <= {HONEST_MAX_N}, got {shown(n)}")
    if n < family.narrowest:
        raise ConfigError(f"{family.name} scenarios need n >= {family.narrowest}")
    if not isinstance(allow_zero_m1, bool):
        raise ConfigError("unveil and allow_zero_m1 must be true or false")
    return (alpha, beta) if attack else None
'''}},
        [("engine.py", 98, "names allow_zero_m1, a family's own field"),
         ("engine.py", 99, "names allow_zero_m1, a family's own field"),
         ("engine.py", 132, "names allow_zero_m1, a family's own field"),
         ("engine.py", 133, "names allow_zero_m1, a family's own field")],
        {"engine.py": {1: '''
from .perm import ToyPermutation
def check_scenario(family, attack, n, b, psi):
    """The rules on n, b and psi; a permutation or a flag is its family's to check."""
    return ToyPermutation(n).permuted, "perms", "allow_zero"
'''}, "novy.py": {1: """
def attack_recover(st, perm=None):
    return st.perm.inverse_int(DEFAULT_PERM["a"])
"""}, "twoprover.py": {1: """
def honest_commit(b, n, rng, *, allow_zero_m1=False):
    return honest_unveil_check(allow_zero_m1=allow_zero_m1)
"""}, "harness.py": {1: """
DEFAULT_PERM = {"a": 5, "c": 3}
flag = {"allow_zero_m1": False, "perm": DEFAULT_PERM}, ScenarioConfig.perm_a
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
    from bcsim.harness import DEFAULT_PERM, FAMILY_ENTRIES
    assert {Path(entry.roles.__file__).name for entry in FAMILY_ENTRIES.values()} == set(OWN_FIELDS)
    assert all(entry.field in OWN_FIELDS[Path(entry.roles.__file__).name]
               for entry in FAMILY_ENTRIES.values())
    assert {"perm_a", "perm_c", "allow_zero_m1"} <= set(ScenarioConfig.__dataclass_fields__)
    assert set(DEFAULT_PERM) == {"a", "c"}


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


def test_width_checks_flags_the_one_bound(tmp_path):
    source = FIXTURES["width_checks"][0]["harness.py"]
    [path] = _write(tmp_path, {"harness.py": {
        line: re.sub(r"\b(ATTACK|HONEST)_MAX_N\b", "MAX_N", piece) for line, piece in source.items()}})
    assert width_checks([path]) == [
        (path, line, "compares with a width bound outside engine.check_scenario")
        for line in (133, 138, 142)]


def test_dynamic_imports_flags_an_import_in_a_function_and_dunder_import(tmp_path):
    [path] = _write(tmp_path, {"engine.py": {1: """
def run_protocol(config, rng):
    from . import novy
    def late():
        import importlib
        return importlib.import_module("bcsim.twoprover")
    return novy, __import__("bcsim.twoprover")
"""}})
    assert dynamic_imports([path]) == [
        (path, 2, "imports inside a function"), (path, 4, "imports inside a function"),
        (path, 5, "calls import_module"), (path, 6, "calls __import__")]


def test_own_fields_flags_another_familys_field_in_a_role_module(tmp_path):
    novy, twoprover = _write(tmp_path, {
        "novy.py": {1: "def honest_commit(b, n, p, rng, allow_zero_m1):\n    return p"},
        "twoprover.py": {1: 'from .harness import DEFAULT_PERM\nown = dict(perm=1, key="perm_a")'}})
    assert own_fields([novy, twoprover]) == [
        (novy, 1, "names allow_zero_m1, a family's own field"),
        (twoprover, 1, "names DEFAULT_PERM, a family's own field"),
        (twoprover, 2, "names perm, a family's own field"),
        (twoprover, 2, "names perm_a, a family's own field")]


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
