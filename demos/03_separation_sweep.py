"""Sweep the separation between two Gaussians and watch every bound track
the true error. Writes an SVG plot next to this script.
"""

import pathlib

from dpdiv import run_sweep
from dpdiv.svgplot import line_plot_svg

rows = run_sweep(n_steps=26, n_per_class=200, n_trials=4, seed=7)

print(f"{'sep':>5} {'true':>7} {'dp low':>7} {'dp up':>7} {'bc low':>7} {'bc up':>7} {'emp up':>7}")
for row in rows[::5]:
    print(f"{row.separation:5.1f} {row.ber_true:7.4f} {row.dp_lower_analytic:7.4f} "
          f"{row.dp_upper_analytic:7.4f} {row.bc_lower:7.4f} {row.bc_upper:7.4f} "
          f"{row.dp_upper_empirical_mean:7.4f}")

xs = [r.separation for r in rows]
svg = line_plot_svg(
    [
        {"x": xs, "y": [r.ber_true for r in rows], "label": "true error"},
        {"x": xs, "y": [r.dp_upper_analytic for r in rows], "label": "divergence upper"},
        {"x": xs, "y": [r.dp_lower_analytic for r in rows], "label": "divergence lower"},
        {"x": xs, "y": [r.bc_upper for r in rows], "label": "BC upper"},
        {"x": xs, "y": [r.bc_lower for r in rows], "label": "BC lower"},
        {"x": xs, "y": [r.dp_upper_empirical_mean for r in rows],
         "label": "empirical upper"},
    ],
    title="Error bounds vs mean separation",
    x_label="mean separation", y_label="error rate",
)
out = pathlib.Path(__file__).with_name("separation_sweep.svg")
out.write_text(svg)
print(f"\nwrote {out}")
print("the divergence bounds sit inside the Bhattacharyya bounds at every step")
