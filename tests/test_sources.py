"""Source guards: input validation must survive python -O."""

import ast
import pathlib

import ainfkit

# Internal post-conditions that may stay asserts, by (module, top-level
# function) with their count; every input check raises instead.
POST_CONDITIONS = {
    ("graded", "split_semisplit"): 3,
    ("homquot", "term_stages"): 1,
    ("homquot", "stages_to_tree"): 1,
}


def assert_counts():
    """(module, top-level function or None) -> asserts in the package."""
    counts = {}
    for path in sorted(pathlib.Path(ainfkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = top.name if isinstance(
                top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Assert):
                    key = (path.stem, owner)
                    counts[key] = counts.get(key, 0) + 1
    return counts


def test_no_validation_asserts():
    counts = assert_counts()
    extra = {key: n for key, n in counts.items()
             if n > POST_CONDITIONS.get(key, 0)}
    assert not extra, "asserts outside the post-condition allow-list: %r" % (extra,)
