"""Principal angles, equiangular subspace families, and packing bounds on
real Grassmannians."""

from importlib import import_module

__version__ = "0.1.0"

# Every public name and the module that defines it.  A name's module is
# imported when the name is first read (PEP 562), so `import grasspack`, and
# with it the CLI's start, loads no numpy.
_EXPORTS = {
    "Certificate": "verify",
    "EPS_ANGLE": "linalg",
    "EquiangularReport": "verify",
    "EquiisoclinicReport": "verify",
    "LineSet": "constructions",
    "METRICS": "registry",
    "Metric": "registry",
    "PackingProblem": "packing",
    "PackingResult": "packing",
    "Subspace": "grassmann",
    "SubspaceFamily": "constructions",
    "bound_blokhuis": "bounds",
    "bound_chordal": "bounds",
    "bound_decaen": "bounds",
    "bound_fubini_study": "bounds",
    "bound_gerzon": "bounds",
    "bound_lemmens_seidel": "bounds",
    "bound_angle_distance": "bounds",
    "polynomial_certificate": "verify",
    "check_equiangular": "verify",
    "check_equiisoclinic": "verify",
    "chordal_lift": "constructions",
    "complement_family": "constructions",
    "evaluate": "metrics",
    "get_metric": "registry",
    "icosahedral_lines": "constructions",
    "lift_lines_to_subspaces": "constructions",
    "orthonormal_lines": "constructions",
    "orthonormalize": "linalg",
    "perturb": "packing",
    "plucker_line_family": "constructions",
    "principal_angles": "grassmann",
    "random_subspace": "grassmann",
    "simplex_lines": "constructions",
    "size_chrss": "bounds",
    "solve": "packing",
    "subspace_from_spanning": "grassmann",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
