"""Tour of the local calculus: chains, ordinary points, quotient stars.

Every value comes from ``euler_local``, the one local evaluator.

Run with:  python demos/local_singularities.py
"""

from orbeuler import (
    CyclicQuotient,
    Ordinary,
    StarQuotient,
    cusp_star,
    euler_local,
    hj_expand,
    validate_star,
)

print("== Hirzebruch-Jung chains ==")
for n, q in ((5, 2), (5, 4), (12, 5), (1, 0)):
    print(f"  <{n},{q}>  ->  entries {hj_expand(n, q)}")

print("\n== Ordinary points ==")
for coeffs in (["1/2", "1/2", "1/2"], ["1/6", "1/3", "1/2"], ["1/3"] * 4, ["1", "1", "1"]):
    value = euler_local(Ordinary(coeffs))
    print(f"  weights {coeffs}: value {value.value} ({value.exactness.value}, {value.lc_label()})")

print("\n== Cyclic quotients:  (1-d1)(1-d2)/n ==")
for n, q, d1, d2 in ((3, 1, "0", "0"), (4, 3, "1/2", "0"), (1, 0, "1/2", "1/3")):
    print(f"  <{n},{q}> with d=({d1},{d2}): {euler_local(CyclicQuotient((n, q), d1, d2)).value}")

print("\n== Star-shaped quotients: the ADE family at zero boundary ==")
ade = {
    "D4": (2, ((2, 1, 0), (2, 1, 0), (2, 1, 0))),
    "E6": (2, ((2, 1, 0), (3, 2, 0), (3, 2, 0))),
    "E7": (2, ((2, 1, 0), (3, 2, 0), (4, 3, 0))),
    "E8": (2, ((2, 1, 0), (3, 2, 0), (5, 4, 0))),
}
for name, (b, arms) in ade.items():
    validation = validate_star(b, arms)
    value = euler_local(StarQuotient(b, arms))
    print(f"  {name}: triple {validation.triple}, b0 {validation.invariants.b0}, value {value.value}")

print("\n== The ordinary cusp x^2 = y^3, weight alpha ==")
for alpha in ("0", "1/12", "1/6", "1/2", "5/6", "1"):
    value = euler_local(cusp_star(alpha))
    print(f"  alpha={alpha:>4}: {value.value}  ({value.lc_label()})")
