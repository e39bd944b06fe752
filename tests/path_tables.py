"""Hand-built sample tables shared by the path-query tests: tangent and curvature jump at their vertices,
the corner table repeats a vertex, so its segments include zero-length ones, and the spike table folds back
on itself."""

import numpy as np

from pathfollow.path import ReferencePath


def kinked_table(seed, vertices=40, spacing=0.05):
    """A seeded polyline sampled along its straight chords: each sample takes its chord's direction
    as tangent and a seeded curvature per chord, so tangent and curvature jump at every vertex."""
    rng = np.random.default_rng(seed)
    heading = np.cumsum(rng.uniform(-1.5, 1.5, vertices - 1))
    chord = rng.uniform(1.0, 6.0, vertices - 1)
    step = chord[:, None] * np.column_stack((np.cos(heading), np.sin(heading)))
    verts = np.concatenate(([[0.0, 0.0]], np.cumsum(step, axis=0)))
    edges = np.concatenate(([0.0], np.cumsum(chord)))
    s = spacing * np.arange(int(edges[-1] / spacing) + 1)
    i = np.minimum(np.searchsorted(edges, s, side="right") - 1, chord.size - 1)
    pos = verts[i] + ((s - edges[i]) / chord[i])[:, None] * step[i]
    tangents = np.column_stack((np.cos(heading[i]), np.sin(heading[i])))
    return ReferencePath(pos, tangents, rng.uniform(-0.5, 0.5, chord.size)[i], spacing)


def spike_table(spacing=0.05):
    """A line that folds back on itself 0.01 m to the side, then 1.6 m along the path from its start and 0.7 m
    from it runs 0.4 m out to that side and straight back: samples 32 and 48 lie on the folded line, and the
    samples between them bulge past both, most at sample 40."""
    eps, back = 0.01, 0.7
    fold = (1.6 + back) / 2.0
    verts = np.array([(0.0, 0.0), (fold - eps / 2, 0.0), (fold - eps / 2, eps), (back, eps), (back, eps + 0.4),
                      (back, eps), (10.0, eps)])
    step = np.diff(verts, axis=0)
    chord = np.abs(step).sum(axis=1)  # every leg runs along an axis
    edges = np.concatenate(([0.0], np.cumsum(chord)))
    s = spacing * np.arange(round(edges[-1] / spacing) + 1)
    i = np.minimum(np.searchsorted(edges, s, side="right") - 1, chord.size - 1)
    pos = verts[i] + ((s - edges[i]) / chord[i])[:, None] * step[i]
    return ReferencePath(pos, step[i] / chord[i][:, None], np.zeros(s.size), spacing)


def corner_table():
    # A right-angle corner at (2, 0), reached through four coincident
    # vertices: zero-length segments and exact ties between the segments
    # on either side of the corner.
    pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 0.0), (2.0, 0.0), (2.0, 0.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]
    n = len(pts)
    return ReferencePath(pts, np.tile([1.0, 0.0], (n, 1)), np.linspace(-0.5, 0.5, n), 1.0)
