"""Two independent routes to every coefficient table.

Each expansion family carries displayed special-value formulas for its
partial Bell polynomials B(n, k).  The library's values always come from
the generic recurrence over the family's derivative sequence; the closed
forms only check it.  A verification gate compares each formula with the
recurrence on the first bell_values call and warns on any disagreement.
This demo runs the comparison by hand for a few families, shows the
scaling identity the recurrence obeys, and prints the gate's own report.

Run:  python3 demos/bell_cross_validation.py
"""

from fractions import Fraction

from funcseries import (
    bell_closed_form,
    bell_generic,
    bell_values,
    derivative_sequence,
    gate_report,
)


def main():
    print("closed form vs recurrence, n <= 8:")
    for key in ("a1", "a2", "a9", "a13", "c2"):
        seq = derivative_sequence(key, 8)
        worst = max(
            abs(float(bell_closed_form(key, n, k) - bell_generic(n, k, seq[: n - k + 1])))
            for n in range(1, 9)
            for k in range(1, n + 1)
        )
        print(f"  {key:4s} largest difference: {worst}")

    print()
    print("a sample triangle (family a2, factorial arguments):")
    rows = bell_values("a2", 5)
    for n in range(1, 6):
        print(f"  n={n}:", [str(v) for v in rows[n][1:]])

    print()
    print("homogeneity of the recurrence: B(n,k, a b^j x_j) = a^k b^n B(n,k, x)")
    xs = [Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(3)]
    a, b = Fraction(2, 3), Fraction(-5, 2)
    scaled = [a * b ** (j + 1) * xs[j] for j in range(4)]
    lhs = bell_generic(5, 2, scaled)
    rhs = a**2 * b**5 * bell_generic(5, 2, xs)
    print(f"  n=5, k=2: {lhs} = {rhs}  ->  {lhs == rhs}")

    print()
    print("gate outcomes recorded so far (True = closed form verified):")
    for token, ok in sorted(gate_report().items()):
        print(f"  {token}: {ok}")


if __name__ == "__main__":
    main()
