"""Dirichlet spectra, reversibility detection, and minor interlacing.

For the drifted chain with no bias the full Dirichlet spectrum is known in
closed form, which makes it a good solver check.  Removing one state from a
reversible chain interlaces the spectra, with a strict gap at the bottom;
this script prints both, plus a Kolmogorov-cycle witness for a chain that
is not reversible, whose full spectrum is refused while its eigenpair and
minor eigenvalues still exist.
"""

import numpy as np

from qsamp import (
    NotReversible,
    build_general,
    build_rho_chain,
    dirichlet_eigenpair,
    full_spectrum,
    lambda0_minor,
    quasi_stationary_dist,
    reversible_measure,
)


def main():
    n = 8
    gen = build_rho_chain(n, 1.0)
    rep = full_spectrum(gen, compute_minors=True)
    k = np.arange(n)
    closed = 2.0 * (1.0 - np.cos((2 * k + 1) * np.pi / (2 * n)))
    print(f"=== unbiased drifted chain, N = {n} ===")
    print("eigenvalues of -K (solver vs closed form):")
    for a, b in zip(rep.eigenvalues, closed):
        print(f"  {a:.12f}   {b:.12f}   diff {abs(a - b):.1e}")
    print()

    print("interlacing with the minor that removes the exit state:")
    tilde = rep.minor_spectra[1]
    lam = rep.eigenvalues
    rows = [f"lambda_0 = {lam[0]:.6f} < tilde_0 = {tilde[0]:.6f}"]
    for i in range(1, len(tilde)):
        rows.append(f"lambda_{i} = {lam[i]:.6f} <= tilde_{i} = {tilde[i]:.6f}")
    print("  " + "\n  ".join(rows))
    print(f"strict bottom gaps (every single-state removal):")
    for x in range(1, n + 1):
        print(f"  remove {x}: lambda0 goes {lam[0]:.6f} -> {lambda0_minor(gen, x):.6f}")
    print()

    print("=== quasi-stationary distribution ===")
    nu = quasi_stationary_dist(gen)
    pair = dirichlet_eigenpair(gen)
    print("nu:", np.array2string(nu, precision=5))
    print(f"left-eigen residual |nu K + lambda0 nu|: "
          f"{np.abs(nu @ gen.k_matrix() + pair.lambda0 * nu).max():.2e}\n")

    print("=== a chain that is not reversible ===")
    drifted_cycle = build_general(
        3,
        [(1, 2, 2.0), (2, 3, 2.0), (3, 1, 2.0),
         (2, 1, 1.0), (3, 2, 1.0), (1, 3, 1.0)],
        {1: 0.5},
    )
    eta, witness = reversible_measure(drifted_cycle)
    print(f"reversible measure found: {eta is not None}")
    print(f"Kolmogorov cycle witness (closed state path): {witness}")
    pair = dirichlet_eigenpair(drifted_cycle)
    print(f"the eigenpair still exists: lambda0 = {pair.lambda0:.6f}, "
          f"phi = {np.array2string(pair.phi, precision=5)}")
    try:
        full_spectrum(drifted_cycle)
    except NotReversible as exc:
        print(f"full_spectrum refuses it: {exc}")
    minors = [lambda0_minor(drifted_cycle, x) for x in range(1, 4)]
    print(f"lambda0_minor still answers: {np.array2string(np.array(minors), precision=6)}")


if __name__ == "__main__":
    main()
