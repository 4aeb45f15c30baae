import ast
from pathlib import Path

import sprank


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so a result guard must raise, and
    # raise a sprank error: a bare AssertionError reads as a test failure.
    found = []
    for path in sorted(Path(sprank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or (isinstance(node, ast.Raise) and _raises_assertion_error(node))
        ]
    assert not found, f"asserts or AssertionError raises in sprank: {found}"


def _calls_itself(fn) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if (
            isinstance(f, ast.Attribute)
            and f.attr == fn.name
            and isinstance(f.value, ast.Name)
            and f.value.id in ("self", "cls")
        ):
            return True
    return False


def test_no_directly_recursive_functions_in_library():
    # Every search keeps its own stack, so no input can reach Python's
    # recursion limit.
    found = []
    for path in sorted(Path(sprank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(node)
        ]
    assert not found, f"directly recursive functions in sprank: {found}"


def _sprank_modules_imported(tree) -> list[str]:
    """The sprank modules a parsed module imports, named relative to the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # The oracle sits at the package's top level, so a relative
            # import names a sprank module.
            module = ".".join(filter(None, ["sprank" if node.level else "", node.module]))
            names = [module] if module != "sprank" else [f"sprank.{a.name}" for a in node.names]
        else:
            continue
        found += [
            name.removeprefix("sprank").lstrip(".")
            for name in names
            if name.split(".")[0] == "sprank"
        ]
    return found


ORACLE_PATTERN_NAMES = {"BipartiteGraph", "check_dense_size", "complement"}


def test_oracle_is_independent_of_the_flow_algorithms():
    # The oracle is the independent route that verify checks the flow
    # results against, so it may share only the error types and the
    # pattern data model with them.  From pattern it takes the graph, the
    # size cap and the complement, not the library's MatchingPool: a wrong
    # pool would then make both weak resilience routes wrong alike.
    path = Path(sprank.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = _sprank_modules_imported(tree)
    assert "errors" in imported and "pattern" in imported
    outside = [name for name in imported if name.split(".")[0] not in ("errors", "pattern")]
    assert not outside, f"oracle.py imports sprank modules beyond errors and pattern: {outside}"
    from_pattern = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "pattern"
        for alias in node.names
    }
    assert from_pattern <= ORACLE_PATTERN_NAMES, f"oracle.py imports from pattern: {from_pattern}"
    pools = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "MatchingPool")
        or (isinstance(node, ast.Attribute) and node.attr == "MatchingPool")
    ]
    assert not pools, f"oracle.py uses MatchingPool at lines {pools}"


NETWORK_SOLVERS = {"max_flow", "build_resilience_network", "build_augmentation_network"}


def test_library_solves_stay_on_the_b_matching_engine():
    # The explicit networks and their generic solver are the paper's
    # constructions and the tests' reference; every library solve runs on
    # flow._BMatching instead.  The package's __init__ only re-exports them.
    found = []
    for path in sorted(Path(sprank.__file__).parent.glob("*.py")):
        if path.name == "flow.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in NETWORK_SOLVERS)
            or (isinstance(node, ast.Attribute) and node.attr in NETWORK_SOLVERS)
        ]
    assert not found, f"library code outside flow.py uses the network solvers: {found}"


ENGINE_STATE = {"row_cols", "col_rows", "cut", "verify_min_cut"}


def test_only_the_engine_reads_its_state_and_checks_its_cut():
    # The sweep checks its own witness and each repair its own matching or
    # min cut, on the engine's own data; no other module reads H or the cut
    # to check them again from outside.
    found = []
    for path in sorted(Path(sprank.__file__).parent.glob("*.py")):
        if path.name == "flow.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ENGINE_STATE
        ]
    assert not found, f"library code outside flow.py reads the engine's state: {found}"


def test_oracle_has_one_matching_search():
    # Every oracle route enumerates matchings through one search kernel,
    # which yields edge masks and bans edges by mask; the column-tuple
    # search it replaced lives on only in the tests' frozen reference.
    path = Path(sprank.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = [
        node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    generators = [
        fn.name
        for fn in functions
        if any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(fn))
    ]
    assert len(generators) == 1, f"oracle.py defines generator functions {generators}"
    retired = {fn.name for fn in functions} & {"_adjacency", "_edge_index", "_edge_rows", "_left_perfect_matchings"}
    assert not retired, f"oracle.py still defines {sorted(retired)}"


def test_the_engine_has_one_raise():
    # Every raise of the fair b-matching's potentials is a unit raise off
    # the fill's cut; the Dijkstra it replaced lives on only in the tests'
    # reference, and no heap is left in the engine.
    path = Path(sprank.__file__).parent / "flow.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "heapq" not in imported, "flow.py imports heapq"
    functions = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    retired = functions & {"_raise_by_dijkstra", "_raise_by_cut"}
    assert not retired, f"flow.py still defines {sorted(retired)}"


def test_the_engine_keeps_no_room_list():
    # Every scan of the engine takes a column with room where it meets one,
    # so no list of the columns with room is kept on the engine for the
    # search and the fill to edit; a fill's snapshot is a local.
    path = Path(sprank.__file__).parent / "flow.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rooms = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "room"]
    assert not rooms, f"flow.py reads or sets a .room attribute at lines {rooms}"
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "islice" not in imported, "flow.py imports islice"
