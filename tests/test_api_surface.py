"""The library surface has no member that only tests call.

Every public class in `src/tamechain`, every public method or property
of one, and every public module-level function is referenced somewhere
in `src/` outside its own definition (`.name` for a member; the bare
name or `.name` for a class or function), or is on the keep list below
with its reason.  Being exported by `tamechain/__init__.py` is not
enough: its import there is not a reference, so an exported name needs
a reader or a reason too.  A reference from inside a member that is
itself unused does not count.  The check goes by name, so a member passes
when a used member of another class shares its name.

Likewise every name a module binds by assignment (a constant, a cache, a
type alias; dunder names aside) is referenced in `src/` outside its own
assignment, or is exported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import tamechain

SRC = Path(tamechain.__file__).parent

KEEP = {
    "field.Mat.scale": "perfbench/spans.py wraps it by name in the traced run",
    "field.Mat.rank": "perfbench/spans.py wraps it by name in the traced run",
    "field.Mat.transpose": "perfbench/spans.py wraps it by name in the traced run",
    "field.Mat.take_rows": "perfbench/spans.py wraps it by name in the traced run",
    "field.Mat.take_cols": "perfbench/spans.py wraps it by name in the traced run",
    "posets.FinPoset.suplim": "the paper's suplim (minimal upper bounds of a subset), checked by the poset tests",
    "posets.RealizedPoset.points": "the symbolic points of S(Q, D, V), which the realization oracles read",
    "chains.SummandLabel.key": "the sortable form of a summand label, which the decomposition tests compare",
    "chains.chain_coker": "the cokernel of a chain map, which the brute-force gluing oracle builds coker beta with",
    "functors.common_realized_discretization": "perfbench's realize-kan workload calls it",
    "field.solve": "the public solver of A X = B, which the tests use as the oracle of `coordinates` and of the lifts",
    "morphisms.hom_space": "the canonical basis of natural chain maps X -> Y, which the suite's chain-map oracles enumerate",
    "functors.local_homology": "the paper's local homology H0/H1 at an element, whose free-functor formulas acceptance criterion 8 checks",
    "posets.alpha_v_formula": "the paper's closed-form transfer onto S(Q, V), which the realization oracles compare with transfer_point",
    "chains.classify_morphism": "the paper's model-structure flags (cofibration, fibration, weak equivalence); the suite classifies every factorization with it",
    "chains.reassemble": "the structure theorem's direct sum of the decomposition's summands, the round trip of `decompose`",
    "morphisms.split_by_idempotent": "the splitting X = im(e) + im(1 - e) by an idempotent, with the witnesses the indecomposability tests check",
}


def _surface():
    """The public definitions by qualified name, each as (name, file, first
    line, last line, is a function), the references by name as (file, line),
    the names `tamechain/__init__.py` exports, and the module-level names
    bound by assignment, each as (name, file, first line, last line)."""
    defs: dict[str, tuple[str, str, int, int, bool]] = {}
    assigned: dict[str, tuple[str, str, int, int]] = {}
    attrs: dict[str, list[tuple[str, int]]] = {}
    names: dict[str, list[tuple[str, int]]] = {}
    exported: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__init__.py":
            exported |= {a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.{f.name}", f, False) for f in node.body if isinstance(f, ast.FunctionDef)]
                members.append((node.name, node, True))
            else:
                members = [(node.name, node, True)] if isinstance(node, ast.FunctionDef) else []
            for qual, f, is_function in members:
                if not f.name.startswith("_"):
                    defs[f"{path.stem}.{qual}"] = (f.name, path.name, f.lineno, f.end_lineno, is_function)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name) and not n.id.startswith("__"):
                            assigned[f"{path.stem}.{n.id}"] = (n.id, path.name, node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append((path.name, node.lineno))
            elif isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((path.name, node.lineno))
    return defs, attrs, names, exported, assigned


def _unused() -> set[str]:
    defs, attrs, names, _, _ = _surface()

    def within(ref, qual):
        _, file, first, last, _ = defs[qual]
        return ref[0] == file and first <= ref[1] <= last

    unused: set[str] = set()
    while True:
        found = set()
        for qual, (name, _, _, _, is_function) in defs.items():
            if qual in unused or qual in KEEP:
                continue
            refs = attrs.get(name, []) + (names.get(name, []) if is_function else [])
            if not any(not within(ref, qual) and not any(within(ref, u) for u in unused) for ref in refs):
                found.add(qual)
        if not found:
            return unused
        unused |= found


def test_every_public_member_has_a_caller():
    unused = sorted(_unused())
    assert not unused, "no caller in src/ and no keep reason: " + ", ".join(unused)


def test_keep_list_names_existing_members():
    defs = _surface()[0]
    assert sorted(set(KEEP) - set(defs)) == []


def test_every_module_level_name_has_a_reader():
    _, attrs, names, exported, assigned = _surface()
    unread = sorted(
        qual
        for qual, (name, file, first, last) in assigned.items()
        if name not in exported
        and all(ref[0] == file and first <= ref[1] <= last for ref in names.get(name, []) + attrs.get(name, []))
    )
    assert not unread, "bound by assignment, never referenced in src/ and not exported: " + ", ".join(unread)
