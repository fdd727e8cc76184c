"""Structural rules on the package source. Each is a function that returns
its violations as (path, line, what): tier-1 asserts it finds none in
src/bcsim, and the CI step named after the rule imports this module and
runs it alone. Each rule has a fixture, the violation it was added for,
that it must flag.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bcsim"


def attack_commits_measure(paths) -> list[tuple[Path, int, str]]:
    """Each .measure or .branches call inside a function named attack_commit.

    Both attack commits carry one amplitude per block of B and draw every
    announced value from weights cached per (psi, n), so a commit builds a
    SparseState only for the labels its z leaves. Such a call would measure
    a state a cached pick already stands for.
    """
    bad = []
    for path in sorted(paths):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(func, ast.FunctionDef) and func.name == "attack_commit":
                bad += [(path, node.lineno, f"calls .{node.func.attr} in attack_commit")
                        for node in ast.walk(func)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("measure", "branches")]
    return sorted(bad)


# novy.attack_commit's tail before z was drawn from cached weights: it built
# the four labels z could leave and measured them.
NOVY_COMMIT_THAT_MEASURED = '''
def attack_commit(psi, n, p, rng):
    y0, y1 = system.solutions()
    pairs = sorted((p.inverse_int(y), y) for y in (y0, y1))
    layout = cached_layout((("B", 1), ("X", n), ("Y", n)))
    s = SparseState(layout, {(b << 2 * n) | (x << n) | y: amp
                             for b, amp in blocks for x, y in pairs}, check=False)
    z, _, s = s.measure(["B", "Y"], rng, lambda b, y: b ^ (y == y1))
    t.announce(ALICE, BOB, COMMIT, "z", z)
    return NovyAttackState(n=n, perm=p, state=s, z=z, y0=y0, y1=y1, transcript=t)
'''


def test_attack_commits_measure_nothing():
    paths = list(SRC.glob("*.py"))
    assert {path.name for path in paths} >= {"novy.py", "twoprover.py"}
    assert attack_commits_measure(paths) == []


def test_attack_commit_rule_flags_the_measure_it_was_added_for(tmp_path):
    path = tmp_path / "novy.py"
    path.write_text(NOVY_COMMIT_THAT_MEASURED)
    assert attack_commits_measure([path]) == [(path, 8, "calls .measure in attack_commit")]
    path.write_text(NOVY_COMMIT_THAT_MEASURED.replace(".measure(", ".branches("))
    assert attack_commits_measure([path]) == [(path, 8, "calls .branches in attack_commit")]
    path.write_text(NOVY_COMMIT_THAT_MEASURED.replace("def attack_commit", "def attack_unveil"))
    assert attack_commits_measure([path]) == []
