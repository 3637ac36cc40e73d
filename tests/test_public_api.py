import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import cubetrees
import cubetrees.broadcast
import cubetrees.files
import cubetrees.verify

# The library surface the README documents.  Changing it is an API change:
# update this list and the README's library section together.
DOCUMENTED = [
    "Decomposition",
    "bounds_for",
    "broadcast_metrics",
    "construct",
    "read_decomposition",
    "tree_depths",
    "verify_decomposition",
    "write_decomposition",
]


def test_all_is_the_documented_surface():
    assert sorted(cubetrees.__all__) == DOCUMENTED
    for name in cubetrees.__all__:
        assert getattr(cubetrees, name).__module__.startswith("cubetrees.")


# The names cubetrees.files defines for its importers: one reader per kind of
# input, one writer and one exporter.  A second decode path or a format-specific
# exporter would show up here.
FILES_PUBLIC = [
    "DecompositionParseError",
    "EXPORT_FORMATS",
    "FORMAT_VERSION",
    "MAGIC",
    "decomposition_from_bytes",
    "decomposition_to_bytes",
    "export_decomposition",
    "open_replacing",
    "read_decomposition",
    "write_decomposition",
]


# The names cubetrees.verify defines: the error, the three report classes, one
# entry point and the two edge-set checks the tests and the benchmark call.
# verify_decomposition reaches every edge set through one private routine
# (_check_labels, guarded below), so a second leftover path or a
# spanning-tree predicate would show up here.
VERIFY_PUBLIC = [
    "LeftoverCheck",
    "MalformedDecompositionError",
    "TreeCheck",
    "VerifyReport",
    "forest_components",
    "is_matching",
    "verify_decomposition",
]


# The names cubetrees.construct defines: the decomposition, its two kinds,
# the leftover label, the base case and the builder.  The function
# cubetrees.construct hides the submodule, so tests import it by name.
CONSTRUCT_PUBLIC = ["Decomposition", "EVEN", "LEFTOVER", "ODD", "base_q2", "construct"]


# The names cubetrees.hypercube defines: the cap and its error, the edge
# error, the two argument checks, the counts, the edge decoder, and the
# label bit planes with the per-vertex edge masks derived from them.
HYPERCUBE_PUBLIC = [
    "CapExceededError",
    "DIMENSION_CAP",
    "MalformedEdgeError",
    "bit_planes",
    "check_dimension",
    "check_integer",
    "edge_endpoints",
    "num_edges",
    "num_vertices",
    "plane_masks",
]


# The names cubetrees.broadcast defines: the report class, its builder, the
# per-tree depths and the link load.  The searches, their level step and the
# first-visit filter are private; a search helper made public shows up here.
BROADCAST_PUBLIC = ["BroadcastMetrics", "broadcast_metrics", "link_load", "tree_depths"]


def public_names(module):
    """Top-level names the module's source defines without a leading underscore."""
    defined = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return sorted(name for name in defined if not name.startswith("_"))


def test_files_defines_only_its_public_names():
    assert public_names(cubetrees.files) == FILES_PUBLIC
    assert cubetrees.files.EXPORT_FORMATS == ("dot", "edgelist", "json-doc")


def test_verify_defines_only_its_public_names():
    assert public_names(cubetrees.verify) == VERIFY_PUBLIC


def test_construct_defines_only_its_public_names():
    assert public_names(importlib.import_module("cubetrees.construct")) == CONSTRUCT_PUBLIC


def test_hypercube_defines_only_its_public_names():
    assert public_names(importlib.import_module("cubetrees.hypercube")) == HYPERCUBE_PUBLIC


def test_broadcast_defines_only_its_public_names():
    assert public_names(cubetrees.broadcast) == BROADCAST_PUBLIC


def test_every_private_name_is_loaded_in_the_package():
    # A module-level private function, class or constant that no module of
    # the package reads is dead code, whatever the tests still call.
    trees = [ast.parse(path.read_text()) for path in Path(cubetrees.__file__).parent.glob("*.py")]
    loaded = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
    private = set()
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            private.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            private.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in private if name.startswith("_") and not name.endswith("__")}
    assert private and sorted(private - loaded) == []


# How trees are searched lives in walk.py alone: the walk, the masks and the
# planes they come from, the search of a group, and the two-thread schedule.
SEARCH_INTERNALS = {"_search", "plane_masks", "bit_planes", "_search_group", "_usable_cpus", "_on_two_threads", "_trim_heap"}


def used_names(tree):
    """Names a module's source reads or imports: f, module.f and from m import f."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_only_walk_calls_the_search_internals():
    package = Path(cubetrees.__file__).parent
    callers = {path.name: used_names(ast.parse(path.read_text())) & SEARCH_INTERNALS for path in package.glob("*.py")}
    assert callers.pop("walk.py") == SEARCH_INTERNALS
    assert {name: found for name, found in callers.items() if found} == {}
    # the scan sees every form of use
    code = "from .walk import _search\nrun = _on_two_threads\nwalk.plane_masks(p, t, n)"
    assert used_names(ast.parse(code)) & SEARCH_INTERNALS == {"_search", "_on_two_threads", "plane_masks"}


# Inside verify.py the edge ends of a label and their hooking are read by
# _check_labels alone, so every label set it counts is counted one way.
EDGE_SET_INTERNALS = {"_edge_ends", "_roots"}


def test_only_check_labels_reads_the_edge_ends_and_the_hooking():
    tree = ast.parse(Path(cubetrees.verify.__file__).read_text())
    found = [(getattr(node, "name", None), used_names(node) & EDGE_SET_INTERNALS) for node in tree.body]
    assert [(name, names) for name, names in found if names] == [("_check_labels", EDGE_SET_INTERNALS)]


def test_import_loads_no_executor_or_ctypes_of_its_own():
    # numpy may load ctypes itself; the package must add neither module.
    code = (
        "import sys, numpy; before = set(sys.modules); import cubetrees; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] in ('concurrent', 'ctypes')))"
    )
    src = Path(cubetrees.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
