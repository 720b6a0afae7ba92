"""Global orbifold Euler numbers of projective surface pairs, and the
Bogomolov-Miyaoka-Yau style certificates built from them.

A pair is a normal projective surface X with a boundary divisor
``D = sum a_i D_i`` (weights in [0, 1]).  Its orbifold Euler number counts
smooth points off D as 1, smooth points of D_i as 1 - a_i, and each supplied
special point by its local value:

    e_orb(X, D) = e_top(X) - sum a_i e_top(D_i - Sing(X, D))
                  + sum over points (e_loc - 1).

With B_i the number of branches of D_i at the supplied points,
e_top(D_i - Sing(X, D)) = 2 - 2 g_i - B_i, so e_orb is assembled from the
integer totals B_i as ``e_top(X) + sum a_i (2 g_i - 2 + B_i)`` plus local terms.

The main certificate is ``3 e_orb(X, D) >= (K_X + D)^2``, valid when the
pair is log canonical and a multiple of K_X + D is effective; equality forces
K_X + D nef (reported as a note, never verified here).  A second form bounds
``(K_X + D)^2`` by weighted branch counts and multiplicities alone.

Each quantity has one source: local values and lc flags come only from
:func:`~orbeuler.local.euler_local`, e_orb and its base only from
:func:`euler_orbifold_global` (whose result :func:`check_bmy` reports as
``global_value``), and ``(K_X + D)^2`` only from :func:`pair_kd_squared`.
:func:`check_bmy` evaluates once per distinct germ and reports both forms,
the multiplicity form as ``multiplicities`` with the same precondition
notes; :func:`check_bmy_multiplicities` reads it from there, so a germ the
evaluator refuses raises in either.  Repeated germs and multiplicities
enter as ``count * term``, so the work follows the number of distinct germs,
not the number of points.

The supplied point list is trusted to be all of Sing(X, D): omitting a
singular point invalidates a certificate.  Two surface modes exist: the
projective plane (intersection numbers from degrees, effectivity decided by
total degree) and a generic mode with user-supplied pairings and a
user-asserted effectivity flag.

A pair is refused (``ValueError``) only when it is built: each record reads
its own fields with the readers of :mod:`orbeuler.rationals`, and
:class:`PairDescription` checks the rules that tie them together.  A pair
document is mostly its point list, so the CLI builds each point while the
document is decoded (:func:`point_hook`) and holds no JSON tree of the
points; a point entry refused there is refused by :func:`pair_from_dict`,
so refusals keep their order: surface, components, then points.  Generic
pairings must be complete and symmetric, and a point on no component, which
removes nothing from any curve, must carry no boundary weight and have
m_P = 0.  Assembly and ``(K_X + D)^2`` only compute, so a built pair fails a
certificate only where the evaluator refuses a germ.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from marshal import dumps as marshal_dumps

from ._record import record
from .local import (
    CyclicQuotient,
    Exactness,
    Ordinary,
    ReducedGerm,
    StarQuotient,
    euler_local,
    singularity_from_dict,
    singularity_to_dict,
)
from .rationals import as_integer, as_list, as_object, as_rational, as_weight, format_rational

__all__ = [
    "Verdict",
    "SurfaceData",
    "ComponentData",
    "SingularPointData",
    "PairDescription",
    "GlobalEuler",
    "BmyReport",
    "IneqReport",
    "euler_orbifold_global",
    "pair_kd_squared",
    "check_bmy",
    "check_bmy_multiplicities",
    "max_canonical_degree_extremal",
    "pair_from_dict",
    "pair_to_dict",
]


class Verdict(Enum):
    PROVED = "proved"
    CONSISTENT_UPPER_BOUND = "consistent-upper-bound"
    VIOLATION = "violation"
    PRECONDITION_FAILED = "precondition-failed"


@record
class SurfaceData:
    """Surface numerics: e_top (= c2 when smooth projective) and c1^2 = K^2."""

    e_top: int
    c1_sq: int
    plane: bool = False

    def _check(e_top, c1_sq, plane):
        as_integer(e_top, "e_top")
        as_integer(c1_sq, "c1_sq")
        if plane and (e_top, c1_sq) != (3, 9):
            raise ValueError("plane mode fixes e_top = 3 and c1_sq = 9")
        return e_top, c1_sq, plane

    @classmethod
    def projective_plane(cls) -> "SurfaceData":
        return cls(3, 9, plane=True)


@record
class ComponentData:
    """One boundary component: weight, geometric genus, intersection data.

    A plane pair needs ``degree`` and a generic pair ``pairings``, and each
    refuses the other field.  ``pairings`` maps the key ``"K"`` to K.D_i, the
    component's own id to D_i^2, and other component ids to D_i.D_j, so a
    generic pair rejects the id "K".  Every pairing is an integer, and a
    pair rejects any other key.
    """

    id: str
    coeff: Fraction
    genus: int
    degree: int | None = None
    pairings: Mapping[str, int] | None = None

    def _check(id, coeff, genus, degree, pairings):
        if not isinstance(id, str) or not id:
            raise ValueError(f"component id must be a nonempty string, got {id!r}")
        coeff = as_weight(coeff, "component {}: weight", id)
        as_integer(genus, "component {}: genus", 0, ValueError, id)
        if degree is not None:
            as_integer(degree, "component {}: degree", 1, ValueError, id)
        if pairings is not None:
            if not isinstance(pairings, Mapping):
                raise ValueError(f"component {id}: pairings must be an object")
            pairings = dict(pairings)
            for key, value in pairings.items():
                if not isinstance(key, str) or not key:
                    raise ValueError(
                        f"component {id}: pairing key {key!r} is not a nonempty string"
                    )
                as_integer(value, "component {}: pairing {!r}", None, ValueError, id, key)
        return id, coeff, genus, degree, pairings


@record
class SingularPointData:
    """A point of Sing(X, D): local germ, incidences, weighted multiplicity.

    ``incident`` lists (component id, number of analytic branches of that
    component at the point); ``multiplicity`` is the weight-combined
    multiplicity of D at the point, sum of a_i times the branch
    multiplicities.  A point with no incidences lies off D, so a pair
    refuses it unless its germ carries no boundary weight and m_P is 0.
    """

    id: str
    local: Ordinary | CyclicQuotient | StarQuotient | ReducedGerm
    incident: tuple
    multiplicity: Fraction

    def _check(id, local, incident, multiplicity):
        if not isinstance(id, str) or not id:
            raise ValueError(f"point id must be a nonempty string, got {id!r}")
        if not isinstance(local, (Ordinary, CyclicQuotient, StarQuotient, ReducedGerm)):
            raise TypeError(f"point {id}: not a local singularity: {type(local).__name__}")
        if not isinstance(incident, (list, tuple)):
            raise ValueError(
                f"point {id}: field 'incident' must be a list, "
                f"got {type(incident).__name__}"
            )
        normalized = {}  # component id -> its shared (component id, branches)
        for entry in incident:
            if not isinstance(entry, (list, tuple)):
                raise ValueError(
                    f"point {id}: each entry of field 'incident' must be a "
                    f"[component, branches] list, got {type(entry).__name__}"
                )
            if len(entry) != 2 or not isinstance(entry[0], str):
                raise ValueError(
                    f"point {id}: incidence {entry!r} is not a (component, branches) pair"
                )
            component_id, branches = entry
            as_integer(branches, "point {}: branch count", 1, ValueError, id)
            if component_id in normalized:
                raise ValueError(f"point {id}: component {component_id!r} listed twice")
            normalized[component_id] = _incidence(component_id, branches)
        multiplicity = as_rational(multiplicity)
        if multiplicity.numerator < 0:
            raise ValueError(f"point {id}: multiplicity must be nonnegative")
        return id, local, tuple(normalized.values()), multiplicity


@lru_cache(maxsize=4096, typed=True)
def _incidence(component_id: str, branches: int) -> tuple:
    """The one ``(component id, branches)`` tuple for a checked incidence, so
    that points on the same component share it instead of each holding a
    copy; typed, so a subclass of ``str`` or ``int`` keeps its own."""
    return component_id, branches


@record
class PairDescription:
    surface: SurfaceData
    components: tuple
    points: tuple
    effective: bool | None = None

    def _check(surface, components, points, effective):
        components = tuple(components)
        points = tuple(points)
        known = {c.id for c in components}
        if len(known) != len(components):
            raise ValueError("component ids must be unique")
        if len({p.id for p in points}) != len(points):
            raise ValueError("point ids must be unique")
        for component in components:
            for key in component.pairings or ():
                if key != "K" and key not in known:
                    raise ValueError(
                        f"component {component.id}: pairing key {key!r} is neither 'K' "
                        "nor a component id"
                    )
        for point in points:
            for component_id, _ in point.incident:
                if component_id not in known:
                    raise ValueError(
                        f"point {point.id}: unknown component {component_id!r}"
                    )
        if surface.plane:
            for component in components:
                if component.degree is None:
                    raise ValueError(f"component {component.id}: plane mode needs a degree")
                if component.pairings is not None:
                    raise ValueError(f"component {component.id}: plane mode reads no pairings")
        elif "K" in known:
            raise ValueError("component id 'K' is reserved in generic mode for K.D_i")
        if effective is not None and not isinstance(effective, bool):
            raise ValueError(f"effective must be true, false or absent, got {effective!r}")
        if surface.plane and effective is not None:
            raise ValueError("plane mode decides effectivity by degree, so it reads no 'effective'")
        for point in points:
            if not point.incident and (point.multiplicity or any(_boundary_weights(point.local))):
                raise ValueError(
                    f"point {point.id} lies on no component, so its germ must carry no "
                    "boundary weight and its m_P must be 0"
                )
        if not surface.plane:
            for component in components:
                if component.degree is not None:
                    raise ValueError(f"component {component.id}: generic mode reads no degree")
                if "K" not in (component.pairings or ()):
                    raise ValueError(f"component {component.id}: missing pairing entry 'K'")
            # Both rules are symmetric in the two components, so the first
            # ordered pair that breaks one has left <= right.
            for index, left in enumerate(components):
                for right in components[index:]:
                    ours, theirs = left.pairings.get(right.id), right.pairings.get(left.id)
                    if ours is None and theirs is None:
                        raise ValueError(f"missing pairing entry between {left.id} and {right.id}")
                    if None not in (ours, theirs) and ours != theirs:
                        raise ValueError(
                            f"asymmetric pairing between {left.id} and {right.id}: {ours} vs {theirs}"
                        )
        return surface, components, points, effective


@record
class GlobalEuler:
    """A global value; unlike local values it may well exceed 1.

    ``base`` is its part without local terms, e_top(X) + sum a_i (2 g_i - 2 + B_i).
    """

    value: Fraction
    exactness: Exactness
    lc: bool
    base: Fraction

    @property
    def is_exact(self) -> bool:
        return self.exactness is Exactness.EXACT


@record
class IneqReport:
    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    verdict: Verdict
    equality: bool
    notes: tuple = ()


@record
class BmyReport:
    """The main certificate: lhs = 3 e_orb, rhs = (K+D)^2.

    The first six fields are an :class:`IneqReport`'s.  ``global_value`` is
    the assembled e_orb the left side came from; its exactness kind and lc
    flag are the certificate's.  ``multiplicities`` is the multiplicity form
    of the same pair.
    """

    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    verdict: Verdict
    equality: bool
    notes: tuple
    global_value: GlobalEuler
    multiplicities: IneqReport


def _boundary_weights(germ: Ordinary | CyclicQuotient | StarQuotient | ReducedGerm) -> tuple:
    """The boundary weights a germ puts at its point; a reduced germ is one
    weight-1 curve."""
    if isinstance(germ, Ordinary):
        return germ.coeffs
    if isinstance(germ, CyclicQuotient):
        return (germ.d1, germ.d2)
    if isinstance(germ, StarQuotient):
        return tuple(d for _, _, d in germ.arms)
    return (Fraction(1),)


def euler_orbifold_global(pair: PairDescription) -> GlobalEuler:
    """Assemble the global orbifold Euler number of the pair.

    The kind is an upper bound as soon as one local value is (all local
    terms enter with positive sign), and the lc flag records whether every
    supplied point is log canonical.  Each distinct germ is evaluated once,
    when a point first carries it, and enters as ``count * (e_loc - 1)``.
    """
    branches = {component.id: 0 for component in pair.components}
    for point in pair.points:
        for component_id, count in point.incident:
            branches[component_id] += count
    germs = _tally((point.local for point in pair.points), euler_local)
    base = pair.surface.e_top + sum(
        (c.coeff * (2 * c.genus - 2 + branches[c.id]) for c in pair.components), Fraction(0)
    )
    total = base + sum((count * (value.value - 1) for value, count in germs), Fraction(0))
    exact = all(value.is_exact for value, _ in germs)
    lc = all(value.lc for value, _ in germs)
    return GlobalEuler(total, Exactness.EXACT if exact else Exactness.UPPER_BOUND, lc, base)


def _tally(objects, make) -> list:
    """``[make(x), count]`` per distinct x among ``objects``, in order of first
    occurrence; equal objects are counted together, and ``make`` runs once
    per distinct value, when it first occurs.

    Each object is hashed once.  Hashing a germ or an m_P hashes its
    Fractions, which is slow; :func:`pair_from_dict` shares one germ per local
    document and ``parse_rational`` one m_P per literal, so objects are
    grouped by identity first, and only an object not seen before is looked
    up by equality.  Every object seen is kept referenced until the end, so no
    identity is reused meanwhile.
    """
    by_value = {}
    by_identity = {}  # id(x) -> (x, its entry in by_value)
    for obj in objects:
        known = by_identity.get(id(obj))
        if known is None:
            entry = by_value.setdefault(obj, [None, 0])  # the one hash of obj
            if not entry[1]:
                entry[0] = make(obj)
            known = by_identity[id(obj)] = (obj, entry)
        known[1][1] += 1
    return list(by_value.values())


def pair_kd_squared(pair: PairDescription) -> Fraction:
    """(K_X + D)^2 by bilinear expansion of the supplied pairings, each
    D_i.D_j read from whichever of the two components carries it.

    Plane mode shortcuts to the square of the degree of K_X + D.
    """
    if pair.surface.plane:
        return _adjoint_degree(pair) ** 2
    total = Fraction(pair.surface.c1_sq)
    for component in pair.components:
        total += 2 * component.coeff * component.pairings["K"]
    for left in pair.components:
        for right in pair.components:
            value = left.pairings.get(right.id, right.pairings.get(left.id))
            total += left.coeff * right.coeff * value
    return total


def _adjoint_degree(pair: PairDescription) -> Fraction:
    """Degree of K_X + D on the plane: sum a_i deg D_i - 3."""
    return sum((c.coeff * c.degree for c in pair.components), Fraction(0)) - 3


def check_bmy(pair: PairDescription) -> BmyReport:
    """Certify 3 e_orb(X, D) >= (K_X + D)^2 and its multiplicity form.

    Preconditions (checked, not assumed): every supplied point log
    canonical, and a multiple of K+D effective (decided by degree in plane
    mode, user-asserted otherwise).  With an exact left side the verdict is
    Proved or Violation; with an upper-bound left side a passing comparison
    is only ConsistentUpperBound, while a failing one is still a Violation
    since the true value sits below the bound.

    The multiplicity form, reported as ``multiplicities`` with the same
    precondition notes, is (K+D)^2 <= 3 (c2 + sum a_i (2g_i - 2) +
    sum (r_P - m_P + m_P^2/4)), where r_P is the weighted branch count
    sum a_i r_{P,i} and m_P the supplied weighted multiplicity; as
    sum_P r_P = sum a_i B_i, its base is the assembly's ``global_value.base``.
    Both forms are summed once per distinct germ and once per distinct m_P,
    and judged by one rule, the multiplicity form as exact.
    """
    global_value = euler_orbifold_global(pair)
    lhs = 3 * global_value.value
    rhs = pair_kd_squared(pair)
    notes = []
    if not global_value.lc:
        notes.append("the pair is not log canonical at some supplied point")
    if pair.surface.plane:
        degree = _adjoint_degree(pair)
        if degree < 0:
            notes.append(
                f"K+D has total degree {format_rational(degree)} < 0 on the plane: "
                "no multiple is effective"
            )
    elif not pair.effective:
        notes.append("effectivity of a multiple of K+D was not asserted")

    m_counts = _tally((point.multiplicity for point in pair.points), lambda m: m)
    m_terms = sum((count * (m**2 / 4 - m) for m, count in m_counts), Fraction(0))
    mult_rhs = 3 * (global_value.base + m_terms)
    mult_verdict, mult_equality = _compare(rhs, mult_rhs, exact=True, notes=notes)
    multiplicities = IneqReport(rhs, mult_rhs, mult_rhs - rhs, mult_verdict, mult_equality, tuple(notes))
    verdict, equality = _compare(rhs, lhs, global_value.is_exact, notes)
    if verdict is Verdict.PROVED and equality:
        notes.append("equality: K+D is nef (consequence of the theorem, not verified)")
    return BmyReport(
        lhs=lhs,
        rhs=rhs,
        slack=lhs - rhs,
        verdict=verdict,
        equality=equality,
        notes=tuple(notes),
        global_value=global_value,
        multiplicities=multiplicities,
    )


def _compare(small: Fraction, big: Fraction, exact: bool, notes) -> tuple:
    """Verdict and equality flag of ``small <= big``; ``big`` is an upper bound unless exact."""
    equality = exact and small == big
    if notes:
        return Verdict.PRECONDITION_FAILED, equality
    if small > big:
        return Verdict.VIOLATION, equality
    return (Verdict.PROVED if exact else Verdict.CONSISTENT_UPPER_BOUND), equality


def check_bmy_multiplicities(pair: PairDescription) -> IneqReport:
    """The multiplicity form of :func:`check_bmy`, read from its report."""
    return check_bmy(pair).multiplicities


def max_canonical_degree_extremal(genus: int, points) -> Fraction:
    """Largest K_X C allowed for a genus-g curve on a surface with K^2 = 3 c2 > 0.

    Each point contributes through (branches, multiplicity); branches never
    exceed the multiplicity.  The result 3(g - 1) + (3/2) sum (r_P - m_P) is
    negative for rational and elliptic curves without singular points, which
    is how such surfaces exclude them.
    """
    as_integer(genus, "genus", 0)
    total = Fraction(3) * (genus - 1)
    for entry in points:
        try:
            r, m = entry
        except (TypeError, ValueError):
            raise ValueError(f"point {entry!r} is not a (branches, multiplicity) pair") from None
        as_integer(r, "branch count", 1)
        m = as_rational(m)
        if r > m:
            raise ValueError(
                f"branches r = {r} exceed multiplicity m = {format_rational(m)}"
            )
        total += Fraction(3, 2) * (r - m)
    return total


def pair_from_dict(doc) -> PairDescription:
    """Build a pair description from its document form.

    Top-level keys: ``surface`` (``mode``, plus ``e_top``/``c1_sq``: 3 and 9
    in plane mode), ``components``, ``points`` and ``effective``.  Rationals
    are ``"p/q"`` strings throughout, and a point's ``incident`` is a list of
    ``[component id, branches]`` lists.  An entry of ``points`` may already
    be a :class:`SingularPointData`, as :func:`point_hook` builds it.
    """
    (surface_doc,) = as_object(doc, "pair document", "surface")
    (mode,) = as_object(surface_doc, "surface", "mode")
    if mode == "plane":
        surface = SurfaceData(surface_doc.get("e_top", 3), surface_doc.get("c1_sq", 9), plane=True)
    elif mode == "generic":
        surface = SurfaceData(*as_object(surface_doc, "generic surface", "e_top", "c1_sq"))
    else:
        raise ValueError(f"unknown surface mode: {mode!r}")

    component_docs = as_list(doc.get("components", []), "pair field 'components'")
    point_docs = as_list(doc.get("points", []), "pair field 'points'")
    components = [
        ComponentData(
            *as_object(entry, "component entry", "id", "a", "genus"),
            degree=entry.get("degree"),
            pairings=entry.get("pairings"),
        )
        for entry in component_docs
    ]
    germs = {}
    points = [
        entry if isinstance(entry, SingularPointData) else _point(entry, germs)
        for entry in point_docs
    ]

    return PairDescription(
        surface=surface,
        components=tuple(components),
        points=tuple(points),
        effective=doc.get("effective"),
    )


_POINT_KEYS = frozenset(("id", "local", "incident", "m_P"))


def point_hook():
    """A ``json`` ``object_hook`` that builds each point entry of a pair
    document while it is decoded, so that no point's dict, incidence lists
    or strings outlive it; :func:`pair_from_dict` takes the result.

    An object is a point entry when its keys are exactly those of one and its
    ``local`` is an object.  Every other object of a valid pair document has
    a required key outside that set (``surface``, ``mode``, ``a``, ``K`` or
    ``type``).  An entry that is refused is returned as it is, so that
    :func:`pair_from_dict` refuses it in document order, after the surface
    and the components.  Each hook has its own germ cache, as each call of
    :func:`pair_from_dict` has.
    """
    germs = {}

    def hook(obj):
        if obj.keys() == _POINT_KEYS and isinstance(obj["local"], dict):
            try:
                return _point(obj, germs)
            except ValueError:
                pass
        return obj

    return hook


def _point(entry, germs: dict) -> SingularPointData:
    """The point of a point entry.  ``germs`` maps the marshal bytes of each
    local document already parsed to its germ, so each is parsed once.

    For the JSON types
    (dict, list, str, int, bool, float and None) marshal records the exact
    type of every value, so 1, True, "1" and 1.0 all differ, and two entries
    share a parse only when they are the same document.  marshal refuses most
    of what JSON cannot hold, such as a Fraction or a str subclass; such a
    document is parsed for its point alone.
    """
    point_id, local_doc, incident, m_p = as_object(
        entry, "point entry", "id", "local", "incident", "m_P"
    )
    try:
        local_key = marshal_dumps(local_doc)
    except ValueError:
        local = singularity_from_dict(local_doc)
    else:
        local = germs.get(local_key)
        if local is None:
            local = germs[local_key] = singularity_from_dict(local_doc)
    return SingularPointData(point_id, local, incident, m_p)


def pair_to_dict(pair: PairDescription) -> dict:
    surface = {"mode": "plane" if pair.surface.plane else "generic"}
    if not pair.surface.plane:
        surface["e_top"] = pair.surface.e_top
        surface["c1_sq"] = pair.surface.c1_sq
    components = []
    for component in pair.components:
        entry = {
            "id": component.id,
            "a": format_rational(component.coeff),
            "genus": component.genus,
        }
        if component.degree is not None:
            entry["degree"] = component.degree
        if component.pairings is not None:
            entry["pairings"] = dict(component.pairings)
        components.append(entry)
    points = [
        {
            "id": point.id,
            "local": singularity_to_dict(point.local),
            "incident": [[component_id, branches] for component_id, branches in point.incident],
            "m_P": format_rational(point.multiplicity),
        }
        for point in pair.points
    ]
    doc = {"surface": surface, "components": components, "points": points}
    if pair.effective is not None:
        doc["effective"] = pair.effective
    return doc
