"""Checks on the library source and its error hierarchy."""

import ast
import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import persposet
import persposet.cli  # noqa: F401  (not imported by the package itself)
import reference
import tiers
from persposet.documents import GeneratorLimits, canonical_json, random_instance
from persposet.errors import InternalError, PersistenceError
from persposet.verifier import DEFAULT_FIELD

SOURCES = sorted(Path(persposet.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    """python -O strips assert statements, so internal checks must raise explicitly."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_internal_error_is_not_an_input_error():
    assert not issubclass(InternalError, PersistenceError)


def test_every_leaf_error_is_raised():
    """Each error class that no other class in errors.py subclasses is raised somewhere else in the library."""
    errors = next(path for path in SOURCES if path.name == "errors.py")
    classes = [node for node in ast.parse(errors.read_text(encoding="utf-8")).body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    raised = {
        name.id
        for path in SOURCES
        if path != errors
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
        for name in ast.walk(node.exc)
        if isinstance(name, ast.Name)
    }
    assert sorted({node.name for node in classes} - bases - raised) == []


def test_the_sweep_has_one_caller():
    """Every sweep of a tower runs on the reductions of cores, each reduced once per field.

    Only _core_barcodes, which picks a tower's model, calls the sweep; the
    join lemma reads its towers' barcodes off the ordinal sum.  Only the
    reduction cache (_core_chains) builds an order complex and reduces it,
    so no complex is reduced twice while the cache holds its core, and no
    library code sweeps a tower of arbitrary complexes.
    """
    assert called_in("_sweep") == [("homology", "_core_barcodes")]
    assert called_in("order_complex") == called_in("_chains") == [("homology", "_core_chains")]
    defined = [top.name for path in SOURCES for top in parse(path).body if isinstance(top, ast.FunctionDef)]
    assert "tower_barcodes" not in defined


def named_in(target: str) -> list[tuple[str, str]]:
    """(module, top-level definition) of every place in the package that names target, sorted."""
    found = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name == target:
                    found.add((path.stem, getattr(top, "name", "<module>")))
    return sorted(found)


def test_weak_point_rows_have_one_caller():
    """Only the puncture step reads a row of weak points, after its hypothesis decision.

    Removing a weak point from each slice keeps every barcode only for a
    step whose smaller member is its larger member minus the row, which
    the chains guarantee; any other caller would skip barcodes that no
    such argument covers.
    """
    assert named_in("removes_weak_points") == [("verifier", "_step_violation")]


def test_a_row_is_read_once_per_step():
    """Only the puncture step reads a row's sets, once, and every question it asks reads them.

    A second reader of the strict sets of a row (a comparison set built
    and checked again, a weak-point test per value, a last-slice test per
    fiber) would scan the same relations again; none of them is defined.
    """
    assert called_in("row_sets") == [("verifier", "_step_violation")]
    gone = {"restrict", "comparison_set", "fiber_ends_connected", "is_weak_point", "NotASubposet"}
    defined = [
        f"{path.stem}.{top.name}"
        for path in SOURCES
        for top in parse(path).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in gone
    ]
    assert defined == []


def test_weak_sets_have_one_builder():
    """posets.weak_sets is the only reader of a slice's weak sets, whole-slice, one scan per table.

    Fibers read weak down-set tables; the cylinder's cross pairs and the
    up-sets of image tracks read weak up-set tables, one per slice per
    call, whatever the number of rows.  In pposets only
    row_sets (a puncture step's row) and _tagged_sum (which copies both
    factors' relations) read a slice's relation.  The per-value scans
    that the tables replaced, and the closure witness that a yes/no
    closure test replaced, are defined nowhere.
    """
    assert called_in("weak_sets") == [
        ("pposets", "fibers"),
        ("pposets", "persistence_mapping_cylinder"),
        ("pposets", "up_sets_of_image_tracks"),
    ]
    assert [top for module, top in named_in("relation") if module == "pposets"] == ["_tagged_sum", "row_sets"]
    gone = {"_strict_set", "_fiber_slice", "_leaving"}
    defined = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.FunctionDef) and node.name in gone
    ]
    assert defined == []


def test_two_builders_skip_validate():
    """Every derived persistence poset comes from a tagged sum or a sub-tower.

    _tagged_sum builds the cylinder and the ordinal sum, and _sub_tower
    builds comparison sets, fibers, weak up-sets and the chain members;
    only they vouch for a tower without running validate.
    """
    assert called_in("_valid_by_construction") == [("pposets", "_sub_tower"), ("pposets", "_tagged_sum")]


def test_fibers_have_one_caller():
    """Only fiber_defects builds fibers, in one call over every target track.

    pposets.fibers builds each fiber from the one before it in the order
    given; fiber_defects gives the tracks in track order, so tracks that
    merge share the slices after their merge.
    """
    assert called_in("fibers") == [("verifier", "fiber_defects")]


def test_three_module_builders_skip_post_init():
    """Only the modules the library builds itself skip PersistenceModule's checks.

    direct_sum, module_from_barcode and random_module have the right
    shapes and reduced, nonzero entries by construction; a module from
    any other caller is checked and reduced.
    """
    assert called_in("_reduced_module") == [
        ("modules", "direct_sum"),
        ("modules", "module_from_barcode"),
        ("modules", "random_module"),
    ]


def called_in(target: str) -> list[tuple[str, str]]:
    """(module, top-level definition) of every call of target in the package, sorted."""
    found = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == target:
                        found.add((path.stem, getattr(top, "name", "<module>")))
    return sorted(found)


def test_poset_maps_are_plain_dicts():
    """No package module names MonotoneMap or identity_map: every map between posets is its name-to-name dict."""
    for name in ("MonotoneMap", "identity_map"):
        assert [path.name for path in SOURCES if re.search(rf"\b{name}\b", path.read_text(encoding="utf-8"))] == []


def test_check_map_has_one_caller():
    """Only pposets._check_arrow checks a map, so every failure carries its structure or slice map prefix."""
    assert called_in("check_map") == [("pposets", "_check_arrow")]


def test_posets_holds_single_slice_notions_only():
    """The cylinder's tags, its slice and Direction belong to pposets, which alone reads them."""
    tree = parse(module_path("posets"))
    names, _ = names_in(tree)
    defined = {node.name for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert sorted(name for name in names if name.startswith("CYLINDER_") or name == "Direction") == []
    assert "mapping_cylinder" not in defined


def test_one_elimination_loop_per_kind_of_sweep():
    """Only _chains (the reduction of a complex) and elder_barcode (the sweep of a tower) eliminate.

    Every rank on homology is read off a barcode, so a second routine
    calling linalg.reduce_column or linalg.insert_pivot would be a second
    path from complexes to homology.
    """
    found = set(called_in("reduce_column")) | set(called_in("insert_pivot"))
    assert sorted(found) == [("homology", "_chains"), ("modules", "elder_barcode")]


def test_one_io_path():
    """Only cli._read and cli._write open files; nothing else in the package reads or writes one."""
    assert called_in("open") == [("cli", "_read"), ("cli", "_write")]
    for name in ("read_text", "write_text", "read_bytes", "write_bytes", "fdopen"):
        assert called_in(name) == [], name
    imports = re.compile(r"^\s*(from|import) pathlib\b", re.M)
    assert [path.name for path in SOURCES if imports.search(path.read_text(encoding="utf-8"))] == []


def test_one_serializer():
    """Every document the package writes is written by documents.canonical_json: nothing calls json's encoders."""
    for name in ("dumps", "dump", "JSONEncoder", "iterencode"):
        assert called_in(name) == [], name


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def package_imports(path: Path) -> set[str]:
    """The persposet modules that the module at path imports, by short name."""
    found = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "persposet":
                    continue
                module = module.partition(".")[2]
            found.update([module.split(".")[0]] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("persposet."))
    return found


def module_path(stem: str) -> Path:
    return next(path for path in SOURCES if path.stem == stem)


def test_complexes_does_not_import_pposets():
    """Complexes are built from posets; persistence posets reach them only through their cores."""
    assert "pposets" not in package_imports(module_path("complexes"))


def test_homology_is_the_only_view_of_complexes():
    """Every complex the library builds is the order complex of a core, built in homology.

    Only homology (and the package's re-exports) imports complexes, only
    homology calls order_complex, and the verifier imports neither posets
    nor complexes: it reads homology through barcodes and ranks alone.
    """
    assert sorted(path.stem for path in SOURCES if "complexes" in package_imports(path)) == ["__init__", "homology"]
    callers = {
        path.stem
        for path in SOURCES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) == "order_complex"
    }
    assert sorted(callers) == ["homology"]
    assert package_imports(module_path("verifier")) & {"posets", "complexes"} == set()


def test_complexes_has_one_form():
    """complexes defines the complex and the order complex, and nothing else.

    Simplicial maps and towers, with their checks, live in tests/reference.py:
    the library hands the reduction plain vertex maps of monotone maps.
    """
    defined = [
        node.name for node in parse(module_path("complexes")).body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    ]
    assert defined == ["SimplicialComplex", "order_complex"]
    named = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in ("SimplicialMap", "ComplexTower")
        if name in path.read_text(encoding="utf-8")
    ]
    assert named == []


def names_in(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The identifiers a module names, and the subset of them that it reads as attributes."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names | attributes, attributes


def test_every_public_function_is_used():
    """Every public function, class and method is named in its own module or in one that imports it.

    A name that only __init__ and the tests mention is dead code in the
    library; it belongs in tests/reference.py.  Names are matched per
    module: a function, class or method of module D counts as used only
    where D or a module importing from D names it, and a method only
    where it is read as an attribute.  A class's own definition does not
    name it.  So a dead method is caught although a module that cannot
    reach its class uses a name it shares, or a function of that name is
    called.
    """
    stems = [path.stem for path in SOURCES if path.stem != "__init__"]
    named = {stem: names_in(parse(module_path(stem))) for stem in stems}
    readers = {stem: [m for m in stems if m == stem or stem in package_imports(module_path(m))] for stem in stems}
    unused = []
    for stem in stems:
        names = set().union(*(named[m][0] for m in readers[stem]))
        methods = set().union(*(named[m][1] for m in readers[stem]))
        for top in parse(module_path(stem)).body:
            if isinstance(top, ast.FunctionDef):
                defs = [(top.name, top.name, names)]
            elif isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                defs = [(top.name, top.name, names)] + [
                    (f"{top.name}.{node.name}", node.name, methods) for node in top.body
                    if isinstance(node, ast.FunctionDef)
                ]
            else:
                continue
            unused += [
                f"{stem}.{qualname}"
                for qualname, name, used in defs
                if not name.startswith("_") and name not in used
            ]
    assert unused == []


def test_every_cache_is_bounded():
    """An unbounded functools cache grows for the life of the process.

    The set of caches is pinned exactly, so a cache that is added or
    removed (or that this scan stops finding) fails here until it is named.
    The library reuses two things: each poset's core, and each core's
    reduction over F_p.
    """
    caches = reference.library_caches()
    assert sorted(caches) == ["persposet.homology._core_chains", "persposet.posets.core"]
    unbounded = [qualname for qualname, cache in caches.items() if cache.cache_info().maxsize is None]
    assert unbounded == []


@pytest.mark.parametrize("command", [["lemma", "puncture"], ["verify"]], ids=["puncture", "verify"])
def test_caches_clear_and_repeat_cold(tmp_path, command):
    """A cold run leaves the same cache traffic twice, and clearing empties every cache.

    A cache that clearing misses would warm the second run and change its
    hits and misses, so each cold run costs what a fresh process pays.
    """
    path = tmp_path / "instance.json"
    path.write_text(canonical_json(random_instance(1, tiers.S)), encoding="utf-8")
    caches = reference.library_caches()
    traffic = []
    for _ in range(2):
        reference.clear_library_caches()
        infos = {name: cache.cache_info() for name, cache in caches.items()}
        assert [name for name, info in infos.items() if (info.hits, info.misses, info.currsize) != (0, 0, 0)] == []
        with contextlib.redirect_stdout(io.StringIO()):
            persposet.cli.main([*command, str(path)])
        traffic.append({name: cache.cache_info()[:2] for name, cache in caches.items()})
    assert traffic[0] == traffic[1]
    assert any(misses for _, misses in traffic[0].values())


def test_cli_runs_without_numpy(tmp_path):
    """Importing the CLI and verifying an instance loads no numpy; only the tests use it."""
    path = tmp_path / "instance.json"
    path.write_text(canonical_json(random_instance(5, tiers.S)), encoding="utf-8")
    script = (
        "import sys\n"
        "from persposet.cli import main\n"
        f"code = main(['verify', {str(path)!r}])\n"
        "print('numpy' in sys.modules, code)\n"
    )
    src = str(Path(persposet.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split("\n")[-2] == "False 0"


def imports_of(top: str) -> list[str]:
    """file:line of every import of the top-level module top in the package."""
    found = []
    for path in SOURCES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == top]
    return found


def test_no_module_imports_numpy():
    assert imports_of("numpy") == []


def test_no_module_imports_argparse():
    """The CLI reads argv against its own command table; argparse would bring back a second grammar."""
    assert imports_of("argparse") == []


def test_numpy_is_only_a_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]

    def numpy_in(deps):
        return any(dep.split(">")[0].split("=")[0].strip() == "numpy" for dep in deps)

    assert not numpy_in(project.get("dependencies", []))
    extras = project["optional-dependencies"]
    assert [name for name, deps in extras.items() if numpy_in(deps)] == ["test"]


def test_random_takes_the_generator_limits():
    """persposet random has one value flag per field of GeneratorLimits, besides --seed and --report.

    Each flag's default is the field's default, and each flag sets its own
    field; the library holds every default, and the CLI reads it.
    """
    flags = persposet.cli._COMMANDS["random"][2]
    names = sorted(flag[2:].replace("-", "_") for flag in flags if flag not in ("--seed", "--report"))
    fields = [field.name for field in dataclasses.fields(GeneratorLimits)]
    assert names == sorted(fields)
    args = persposet.cli.parse_args(["random"])
    assert {name: getattr(args, name) for name in fields} == dataclasses.asdict(GeneratorLimits())
    for name in fields:
        value = getattr(GeneratorLimits(), name) + 1
        args = persposet.cli.parse_args(["random", f"--{name.replace('_', '-')}", str(value)])
        limits = dataclasses.replace(GeneratorLimits(), **{name: value})
        assert args.handler(args)[1] == random_instance(0, limits)


def test_the_default_field_is_the_library_default():
    """Every command that takes --field, each lemma suite included, defaults to verifier.DEFAULT_FIELD."""
    commands = persposet.cli._COMMANDS
    assert sorted(name for name, entry in commands.items() if "--field" in entry[2]) == [
        "barcode", "fibers", "lemma", "verify"
    ]
    argvs = [[name, "instance.json"] for name in ("barcode", "fibers", "verify")]
    argvs += [["lemma", suite, *["instance.json"] * len(rest)] for suite, (rest, _) in persposet.cli._SUITES.items()]
    assert {persposet.cli.parse_args(argv).field for argv in argvs} == {DEFAULT_FIELD.p}
