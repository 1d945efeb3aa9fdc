#!/usr/bin/env python3
"""Side-by-side look at the two repaired Laplace images.

Two transforms of parabolic-cylinder products circulated with wrong
images: an arcsine-kernel integral whose image carries the wrong
exponential argument, and a product transform off by a factor of two in
the Gaussian.  The catalog keeps both repairs (T41-CORRECTED,
T42-CORRECTED) and both broken originals as negative controls (NEG-T41,
NEG-T42).

This script evaluates all four on the corrected cases' grids and prints
the relative error per point, so you can see the repairs agree to
~1e-12 while the published forms are off by order one: not a tolerance
issue but a different function.

Run:
    python3 demos/wrong_vs_corrected.py
"""

from lapcyl.catalog import get_case, verify

PAIRS = (("T41-CORRECTED", "NEG-T41"), ("T42-CORRECTED", "NEG-T42"))


def main():
    for good_id, bad_id in PAIRS:
        good = get_case(good_id)
        bad = get_case(bad_id)
        print(f"\n{good_id}  vs  {bad_id}")
        print(f"  corrected: {good.label}")
        print(f"  control:   {bad.label}")
        print(f"  {'point (mu,nu,x,y,p)':34s} {'corrected':>12s} {'published':>12s}")
        worst_good = worst_bad = 0.0
        # the control shares the original integral; only its image differs
        inside = [pt for pt in good.default_grid if bad.validity(pt) is None]
        published = {rec.params: rec for rec in verify(bad_id, grid=inside).records}
        for rg in verify(good_id).records:
            pt = rg.params
            rb = published.get(pt)
            worst_good = max(worst_good, rg.rel_error)
            tag = f"({pt.mu:g},{pt.nu:g},{pt.x:g},{pt.y:g},{pt.p:g})"
            if rb is None:
                print(f"  {tag:34s} {rg.rel_error:12.2e} {'outside dom':>12s}")
            else:
                worst_bad = max(worst_bad, rb.rel_error)
                print(f"  {tag:34s} {rg.rel_error:12.2e} {rb.rel_error:12.2e}")
        sep = worst_bad / max(worst_good, 1e-300)
        print(f"  worst corrected {worst_good:.2e}, worst published {worst_bad:.2e}"
              f"  ({sep:.1e}x separation)")


if __name__ == "__main__":
    main()
