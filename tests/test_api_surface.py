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
assignment, or is exported; and every field of a dataclass is read as
`.name` somewhere in `src/`, `tests/` or `perfbench/`, or is on the keep
list.  Every keep entry must be needed: the checks without it must name
it.  README's "Library API" bullets list, per module, exactly the names
`tamechain/__init__.py` imports from it.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

import tamechain

SRC = Path(tamechain.__file__).parent
REPO = Path(__file__).resolve().parents[1]

KEEP = {
    "field.Mat.scale": "perfbench/spans.py wraps it by name in the traced run",
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
    "morphisms.GluingReport.hom_coker_rad_dim": "the brute-force gluing oracle compares the whole report, field by field",
    "morphisms.GluingReport.restriction_kernel_dim": "the brute-force gluing oracle compares the whole report, field by field",
}


@functools.lru_cache(maxsize=None)
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


def _unused(keep=KEEP) -> set[str]:
    defs, attrs, names, _, _ = _surface()

    def within(ref, qual):
        _, file, first, last, _ = defs[qual]
        return ref[0] == file and first <= ref[1] <= last

    unused: set[str] = set()
    while True:
        found = set()
        for qual, (name, _, _, _, is_function) in defs.items():
            if qual in unused or qual in keep:
                continue
            refs = attrs.get(name, []) + (names.get(name, []) if is_function else [])
            if not any(not within(ref, qual) and not any(within(ref, u) for u in unused) for ref in refs):
                found.add(qual)
        if not found:
            return unused
        unused |= found


def _fields() -> dict[str, str]:
    """The annotated fields of every dataclass in `src/tamechain`, by
    qualified name."""
    fields = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                for f in node.body:
                    if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name):
                        fields[f"{path.stem}.{node.name}.{f.target.id}"] = f.target.id
    return fields


@functools.lru_cache(maxsize=None)
def _attributes_read() -> frozenset[str]:
    """Every name read as `.name` in `src/`, `tests/` or `perfbench/`,
    except in this file, whose reads are of syntax nodes."""
    read: set[str] = set()
    for root in (SRC, REPO / "tests", REPO / "perfbench"):
        for path in sorted(root.glob("*.py")):
            if path.resolve() == Path(__file__).resolve():
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return frozenset(read)


def _unread_fields(keep=KEEP) -> set[str]:
    """The dataclass fields never read as `.name` and not kept."""
    read = _attributes_read()
    return {qual for qual, name in _fields().items() if name not in read and qual not in keep}


def test_every_public_member_has_a_caller():
    unused = sorted(_unused())
    assert not unused, "no caller in src/ and no keep reason: " + ", ".join(unused)


def test_every_dataclass_field_is_read():
    unread = sorted(_unread_fields())
    assert not unread, "never read in src/, tests/ or perfbench/ and no keep reason: " + ", ".join(unread)


def test_keep_list_names_existing_members():
    defs = _surface()[0]
    assert sorted(set(KEEP) - set(defs) - set(_fields())) == []


def test_every_keep_entry_is_needed():
    unneeded = []
    for qual in KEEP:
        keep = {k: v for k, v in KEEP.items() if k != qual}
        if qual not in _unused(keep) | _unread_fields(keep):
            unneeded.append(qual)
    assert not unneeded, "kept, but read or called without the keep entry: " + ", ".join(unneeded)


def _readme_api() -> dict[str, set[str]]:
    """The backticked bare names of each `tamechain.<module>` bullet of
    README's "Library API" section, by module."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets: dict[str, str] = {}
    module = None
    for line in section.splitlines():
        m = re.match(r"- `tamechain\.(\w+)`:(.*)", line)
        if m:
            module = m.group(1)
            bullets[module] = m.group(2)
        elif module and line.startswith("  "):
            bullets[module] += line
        else:
            module = None
    return {module: set(re.findall(r"`([A-Za-z_]\w*)`", body)) for module, body in bullets.items()}


def test_readme_lists_the_exports_by_module():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            exported.setdefault(node.module, set()).update(a.asname or a.name for a in node.names)
    readme = _readme_api()
    mismatched = [
        f"{m}: only in README {sorted(readme.get(m, set()) - exported.get(m, set()))}, "
        f"only in __init__.py {sorted(exported.get(m, set()) - readme.get(m, set()))}"
        for m in sorted(readme.keys() | exported.keys())
        if readme.get(m) != exported.get(m)
    ]
    assert not mismatched, "; ".join(mismatched)


def test_every_module_level_name_has_a_reader():
    _, attrs, names, exported, assigned = _surface()
    unread = sorted(
        qual
        for qual, (name, file, first, last) in assigned.items()
        if name not in exported
        and all(ref[0] == file and first <= ref[1] <= last for ref in names.get(name, []) + attrs.get(name, []))
    )
    assert not unread, "bound by assignment, never referenced in src/ and not exported: " + ", ".join(unread)
