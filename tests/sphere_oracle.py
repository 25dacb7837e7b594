"""Reference implementation of the numeric sphere-map check.

The per-sample ``np.convolve`` map and the all-pairs distance block that
``logskel.complexes.sphere_quotient_map_check`` replaced, kept as written so
that its batched map and sorted-sweep neighbour search can be compared with
them report for report.  Quadratic in the number of samples: tests only.
"""

import numpy as np


def all_close_pairs(images, tolerance):
    """Every index pair (a, b), a < b, with sum |images[a] - images[b]|^2 <= tolerance^2,
    found by comparing blocks of 512 images with all images."""
    pairs = set()
    block = 512
    for start in range(0, len(images), block):
        chunk = images[start:start + block]
        d2 = np.sum(np.abs(chunk[:, None, :] - images[None, :, :]) ** 2, axis=2)
        close = np.argwhere(d2 <= tolerance ** 2)
        for a_rel, b in close:
            a = start + int(a_rel)
            if a < b:
                pairs.add((a, int(b)))
    return pairs


def sphere_check_oracle(n: int, samples, tolerance: float = 1e-9):
    """The report dict of the per-sample check (same keys and meaning)."""
    pts = np.asarray(samples, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError("samples must be an (N, n) complex array")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > tolerance):
        raise ValueError("sample points must lie on the unit sphere")

    def coefficients(z):
        poly = np.array([1.0 + 0.0j])
        for zi in z:
            poly = np.convolve(poly, np.array([1.0, -zi]))
        return poly[1:]  # degree n-1 .. 0 coefficients

    def mapped(z):
        c = coefficients(z)
        r = np.abs(c)
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = np.array([r[j] ** (1.0 / (j + 1)) for j in range(n)])
        phases = np.where(r > 0, c / np.where(r > 0, r, 1.0), 0.0)
        phi = roots * phases
        nv = np.linalg.norm(phi)
        if nv < tolerance:
            raise ArithmeticError("map degenerate at a sample (zero coefficient vector)")
        return phi / nv

    images = np.array([mapped(z) for z in pts])

    rng = np.random.default_rng(20960)
    orbit_failures = 0
    for idx in range(len(pts)):
        perm = rng.permutation(n)
        img2 = mapped(pts[idx][perm])
        if np.linalg.norm(img2 - images[idx]) > tolerance:
            orbit_failures += 1

    unit_failures = int(np.sum(np.abs(np.linalg.norm(images, axis=1) - 1.0) > tolerance))

    # sampled injectivity: any pair with (near-)equal images must be one orbit
    def same_orbit(a, b):
        za = pts[a][np.lexsort((pts[a].imag, pts[a].real))]
        zb = pts[b][np.lexsort((pts[b].imag, pts[b].real))]
        return bool(np.max(np.abs(za - zb)) < 1e-6)

    injectivity_failures = 0
    for a, b in all_close_pairs(images, tolerance):
        if not same_orbit(a, b):
            injectivity_failures += 1

    return {
        "n": n,
        "samples": len(pts),
        "orbit_collapse_failures": orbit_failures,
        "injectivity_failures": injectivity_failures,
        "unit_norm_failures": unit_failures,
        "passed": orbit_failures == 0 and injectivity_failures == 0 and unit_failures == 0,
        "tolerance": tolerance,
    }
