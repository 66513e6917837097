"""The package's public surface: what it defines, and what its batch entries accept."""
from __future__ import annotations

import ast
import math
import pathlib

import numpy as np
import pytest

from fermion5d import (
    AnalyticField,
    ConstantField,
    FiniteDifferenceField,
    GammaChoice,
    Multivector,
    ScalarPotentialDemo,
    SourceCurrent,
    build_plane_wave,
    cylinder_check,
    dirac5_residuals,
    hestenes_plane_wave_field,
    minus_constancy_ratio,
    oscillating_source_pair,
    pair_residuals,
    scalar_potential_residuals,
    sector_fields,
    source_current,
)
from fermion5d.algebra import CL32, e
from fermion5d.beyond import derived_minus_field, sourced_massless_residuals
from fermion5d.coulomb import angular_reduction_check
from fermion5d.wave import dirac5_potential_residuals

ROOT = pathlib.Path(__file__).resolve().parents[1]

# ---------------------------------------------------------------------------
# every public name has a caller, or a reason to stay
# ---------------------------------------------------------------------------

#: Public functions, classes and methods that no module of the package and no
#: perfbench file loads, each with the reason it stays.  A name that gains a
#: caller leaves this list; a new name without one needs a reason here.
UNCALLED = {
    "AnalyticField": "user extension point: a field from per-point value and derivative callables",
    "ConstantField": "user extension point: a constant field, such as a constant potential",
    "FiniteDifferenceField": "user extension point: a field from a per-point value callable",
    "Multivector.grade": "the algebra's operator set: the grade projection",
    "Multivector.grades_present": "the algebra's operator set: grade bookkeeping",
    "RadialSeries.evaluate": "ROADMAP item 4: the radial values the five-dimensional lift needs",
    "RadialSeries.derivative": "ROADMAP item 4: the lift's analytic radial partials",
    "angular_reduction_check": "ROADMAP item 4: the angular identity the lift starts from",
    "dirac5_potential_residuals": "ROADMAP item 4: the coupled residual the lift is checked with",
    "RadialSolution.binding_energy": "ROADMAP item 2a: the binding energy that does not cancel",
    "blade_product": "the one-pair reference that the sign tables are tested against",
    "derived_minus_field": "the generic reference that tests hold the demo's minus half to",
}


def _public_definitions(tree: ast.Module) -> list[str]:
    """Public module-level functions and classes, and the public methods of
    every class, as ``name`` or ``Class.method``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{sub.name}"
                for sub in node.body
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
            ]
    return names


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every name read in ``tree``, bare or as an attribute."""
    loaded = set()
    for node in ast.walk(tree):
        kind = type(node)
        if kind is ast.Name or kind is ast.Attribute:
            if type(node.ctx) is ast.Load:
                loaded.add(node.id if kind is ast.Name else node.attr)
    return loaded


def uncalled_public_names(root: pathlib.Path) -> set[str]:
    """Public names of the package that no file of it (``__init__.py`` aside,
    which only re-exports) and no perfbench file loads."""
    defined, loaded = set(), set()
    for path in sorted((root / "src" / "fermion5d").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update(_public_definitions(tree))
        if path.name != "__init__.py":
            loaded |= _loaded_names(tree)
    for path in sorted((root / "perfbench").glob("*.py")):
        loaded |= _loaded_names(ast.parse(path.read_text(), str(path)))
    return {name for name in defined if name.rsplit(".", 1)[-1] not in loaded}


def test_every_public_name_has_a_caller_or_a_listed_reason():
    uncalled = uncalled_public_names(ROOT)
    assert sorted(uncalled - UNCALLED.keys()) == [], "public names nothing calls"
    assert sorted(UNCALLED.keys() - uncalled) == [], "listed names that now have a caller"


# ---------------------------------------------------------------------------
# every batch entry returns its documented shape or raises one line
# ---------------------------------------------------------------------------


PLANE_WAVE = build_plane_wave((0.2, 0.1, 0.3), 0.3, 1.0, GammaChoice.e12()).field()
SCALAR_DEMO = ScalarPotentialDemo(1.0, 0.1, k_spatial=(0.2, -0.15, 0.1))
SOURCE_PLUS, SOURCE_MINUS = oscillating_source_pair()


def _scalar(x):
    return Multivector.scalar(math.sin(x[0]) * math.cos(x[4]))


def _scalar_partial(axis, x):
    slope = (math.cos(x[0]) * math.cos(x[4]), 0.0, 0.0, 0.0, -math.sin(x[0]) * math.sin(x[4]))
    return Multivector.scalar(slope[axis])


def _rows(n):
    return (n, CL32.n_blades)


def _partials(n):
    return (5, n, CL32.n_blades)


#: name -> (a call on a point array, the result's shape for N points): a
#: tuple of shapes for a tuple of arrays, and ``()`` for a Python scalar or
#: an object.
ENTRIES = {
    "dirac5_residuals": (lambda pts: dirac5_residuals(PLANE_WAVE, 1.0, pts), _rows),
    "dirac5_potential_residuals": (
        lambda pts: dirac5_potential_residuals(
            PLANE_WAVE, 1.0, 0.5, ConstantField(e(CL32, 0)), GammaChoice.e12(), pts
        ),
        _rows,
    ),
    "pair_residuals": (lambda pts: pair_residuals(*sector_fields(PLANE_WAVE), 1.0, pts), _rows),
    "scalar_potential_residuals": (
        lambda pts: scalar_potential_residuals(SCALAR_DEMO, pts),
        lambda n: (_rows(n), _rows(n)),
    ),
    "eigen_residuals": (lambda pts: SCALAR_DEMO.eigen_residuals(pts), lambda n: (n,)),
    "sourced_massless_residuals": (
        lambda pts: sourced_massless_residuals(SOURCE_PLUS, SourceCurrent(SOURCE_MINUS), pts),
        _rows,
    ),
    "SourceCurrent.values": (lambda pts: SourceCurrent(SOURCE_MINUS).values(pts), _rows),
    "SourceCurrent.divergences": (
        lambda pts: SourceCurrent(SOURCE_MINUS).divergences(pts),
        lambda n: (n,),
    ),
    "source_current": (lambda pts: source_current(SOURCE_MINUS, SOURCE_PLUS, pts), lambda n: ()),
    "minus_constancy_ratio": (lambda pts: minus_constancy_ratio(SOURCE_MINUS, pts), lambda n: ()),
    "cylinder_check": (lambda pts: cylinder_check(PLANE_WAVE, pts, 1e-10), lambda n: ()),
    "angular_reduction_check": (
        lambda pts: angular_reduction_check(-1, PLANE_WAVE, pts),
        lambda n: (),
    ),
}

#: name -> a field the package builds or wraps.
FIELDS = {
    "plane_wave": PLANE_WAVE,
    "hestenes_plane_wave": hestenes_plane_wave_field((0.2, -0.1, 0.3), 1.0),
    "sector_half": sector_fields(PLANE_WAVE)[1],
    "scalar_demo.xi_plus": SCALAR_DEMO.xi_plus,
    "scalar_demo.curvature": SCALAR_DEMO.curvature,
    "scalar_demo.derived_minus": SCALAR_DEMO.derived_minus(),
    "derived_minus_field": derived_minus_field(PLANE_WAVE, 1.0),
    "source_pair.plus": SOURCE_PLUS,
    "source_pair.minus": SOURCE_MINUS,
    "AnalyticField": AnalyticField(_scalar, _scalar_partial),
    "ConstantField": ConstantField(e(CL32, 0, 1)),
    "FiniteDifferenceField": FiniteDifferenceField(_scalar),
}
for _name, _field in FIELDS.items():
    ENTRIES[f"{_name}.values"] = (_field.values, _rows)
    ENTRIES[f"{_name}.partials"] = (_field.partials, _partials)
    ENTRIES[f"{_name}.samples"] = (_field.samples, lambda n: (_rows(n), _partials(n)))

#: Entries whose first evaluation at a point is a :class:`PhaseField` phase,
#: which rejects a point that is not finite.  The others start from the
#: source pair's plus half (``math.cos(inf)`` raises a bare math error), a
#: user's callable (``FiniteDifferenceField`` gives NaN rows) or a constant.
PHASE_BACKED = sorted(
    name
    for name in ENTRIES
    if not name.startswith(
        ("source_current", "sourced_massless", "source_pair.plus")
        + ("AnalyticField", "ConstantField", "FiniteDifferenceField")
    )
)

#: Entries that need at least one point: zero rows raise this one message.
NEEDS_A_POINT = {
    "angular_reduction_check", "cylinder_check", "minus_constancy_ratio", "source_current"
}

GOOD_INPUTS = {
    "integer-array": np.array([[0, 1, 0, 0, 0], [1, 0, -1, 0, 1]]),
    "nested-lists": [[0.1, 0.2, 0.0, -0.1, 0.05], [0.0, -0.3, 0.1, 0.2, -0.05]],
}
BAD_INPUTS = {"Nx4": np.zeros((3, 4)), "one-point": np.zeros(5)}
NON_FINITE = {
    "nan": [[math.nan] * 5],
    "inf": [[math.inf] * 5],
    "-inf": [[-math.inf] * 5],
    "inf-axis-1": [[0.0, math.inf, 0.0, 0.0, 0.0]],
    "inf-axis-4": [[0.0, 0.0, 0.0, 0.0, math.inf]],
}


def _shape(result) -> tuple:
    if isinstance(result, tuple):
        return tuple(_shape(part) for part in result)
    return result.shape if isinstance(result, np.ndarray) else ()


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_a_batch_entry_returns_its_shape_or_raises_one_line(name):
    call, shape = ENTRIES[name]
    for points in GOOD_INPUTS.values():
        assert _shape(call(points)) == shape(2)
    bad_inputs = list(BAD_INPUTS.values())
    if name in NEEDS_A_POINT:
        with pytest.raises(ValueError, match="^at least one sample point is required$"):
            call(np.zeros((0, 5)))
    else:
        assert _shape(call(np.zeros((0, 5)))) == shape(0)
    for points in bad_inputs:
        with pytest.raises((ValueError, TypeError)) as info:
            call(points)
        assert "\n" not in str(info.value)


@pytest.mark.parametrize("point", list(NON_FINITE.values()), ids=list(NON_FINITE))
@pytest.mark.parametrize("name", PHASE_BACKED)
def test_a_phase_backed_entry_rejects_a_point_that_is_not_finite(name, point):
    call, _ = ENTRIES[name]
    with pytest.raises(ValueError, match="is not finite") as info:
        call(point)
    assert "\n" not in str(info.value)
