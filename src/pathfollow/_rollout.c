/* pathfollow.optimizer._rollout_costs' steps, row by row, with the numpy kernel's bits.

   One entry, rollout_run, flies a stretch of steps over one slice of a rollout's rows.  A step is:
     track     path.project_many, then lookahead_many's 4-segment chunk and, for the rows it misses,
               _lookahead_misses' bulk test for rows that end the path;
     geometry  point_at_many at both arc lengths, then guidance.blended_many up to its cross and dot
               products;
     arctan2   numpy's own float64 arctan2 inner loop, read from its ufunc table by the caller;
     step      the rest of blended_many, the ended rows' zero, then vehicle.step_arrays.
   A stretch returns early only at a track whose missed rows the bulk test cannot settle: the caller
   answers them with the scalar look-ahead and calls again, and the stretch goes on from geometry.
   Slices share nothing but the path's read-only table, and float flags are per thread, so the caller
   runs slices on threads.

   Each stage repeats the numpy stages' float64 operations element by element and in their order.
   +, -, *, / and sqrt round correctly in both, fmod is exact, and hypot, sin and cos are libm's, which
   numpy's equal; arctan2 is numpy's loop itself (the caller checks all four on a probe set before
   first use).  numpy's rules are written out: maximum and minimum propagate NaN and return the second
   operand on a tie, argmin takes the first minimum or the first NaN, np.mod is fmod with Python's sign
   rule and ** 2 is x * x.  Build without -ffast-math and with -ffp-contract=off: no reassociation and
   no fused multiply-add.

   A stretch returns -1 when a float meets an index cast as NaN, or when its arithmetic raised an
   invalid, divide-by-zero or overflow flag; the caller then reruns the rollout on numpy, which raises
   or warns as it does on its own. */
#include <fenv.h>
#include <math.h>
#include <stdint.h>

#define FLAGS (FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW)
#define TINY 1e-300               /* path._TINY */
#define SEAM_EPS 1e-9             /* path._SEAM_EPS */
#define PARALLEL_EPS 1e-9         /* geom.PARALLEL_EPS */
#define MIN_D12 1e-12             /* guidance._MIN_D12 */
#define COS_BETA_MIN 0.1          /* guidance.COS_BETA_MIN */
#define MIN_CURVATURE 1e-6        /* guidance._MIN_CURVATURE, 1 / path.MAX_RADIUS */
#define MIN_RADIUS 1e-3           /* path.MIN_RADIUS */
#define MIN_TARGET_DIST 0.1       /* guidance.MIN_TARGET_DIST */
#define WEIGHT_EPS 1e-12          /* guidance.WEIGHT_EPS */
#define TWO_PI (2.0 * M_PI)       /* geom.TWO_PI, vehicle._TWO_PI */

/* optimizer._Rollout: one slice of a rollout's rows, its operands and its state, each array (m, k) row-major. */
typedef struct {
    const double *t;               /* the path's table: seg2, x, dx, y, dy, tx, dtx, ty, dty, kappa, dkappa */
    long cols, width, last_j, k;   /* table row length, projection window, last segment, rows */
    double ds, last, total;        /* spacing, last sample index, path length */
    double l, l2, max_chord;       /* look-ahead distance and its square, the path's longest chord */
    double v, arc_gain, v_cap;     /* guidance.law_operands */
    double h, dt, scale, a_max;    /* vehicle.step_operands: 0.5 dt, dt, V dt / 6, the clamp (inf: none) */
    const double *k1, *k2;
    double *pos, *psi, *cs, *s_lb, *s;  /* (2, k) x, y; (2, k) cos, sin; (2, k) projection, look-ahead */
    unsigned char *ended;
    double *cte;                   /* the squared cross-track sums */
    int64_t *j, *miss;             /* the look-ahead chunk's first segment per row; rows left to the caller */
    double *cd, *pts, *eta;        /* (2, 2, k) cross then dot of p2 and p4; (9, k) the law's points; (2, k) */
    long nmiss;                    /* rows in miss awaiting the caller's answers, or 0 */
    long nfall;                    /* the caller's look-ahead fallback rows, and their points as (5, nfall) */
    const int64_t *frows;
    const double *fpts;
} Rollout;

/* numpy's PyUFuncGenericFunction: a ufunc's 1-d inner loop. */
typedef void (*Loop)(char **args, const intptr_t *dims, const intptr_t *steps, void *data);

static double mx(double a, double b) { return (a > b || a != a) ? a : b; }
static double mn(double a, double b) { return (a < b || a != a) ? a : b; }
static double row(const Rollout *r, int m, long i) { return r->t[m * r->cols + i]; }

/* The int64 cast of min(u, last segment); -1 for a NaN, which numpy's take refuses. */
static long seg(const Rollout *r, double u) { u = mn(u, r->last - 1.0); return u == u ? (long)u : -1; }

/* path.project_many of row i: a window from the 1 m guard, two segments at its nearest sample. */
static int project(Rollout *r, long i, double x, double y)
{
    double lo_u = r->s[i] - 1.0;
    lo_u = (isgreaterequal(lo_u, 0.0) ? lo_u : 0.0) / r->ds;  /* np.fmax(s - 1, 0): a NaN gives 0 */
    long j_lo = seg(r, lo_u), a = 0, jc[2];
    if (j_lo < 0) return -1;
    double best = 0.0, s[2], dd[2];
    for (long w = 0; w < r->width; w++) {
        double dx = row(r, 1, j_lo + w) - x, dy = row(r, 3, j_lo + w) - y, d = dx * dx + dy * dy;
        if (d != d) { a = w; break; }
        if (w == 0 || d < best) { best = d; a = w; }
    }
    jc[0] = (a > 0 ? a - 1 : 0) + j_lo;
    jc[1] = a + j_lo;
    for (int m = 0; m < 2; m++) {
        long q = jc[m] < r->last_j ? jc[m] : r->last_j;
        double gx = row(r, 1, q), dx = row(r, 2, q), gy = row(r, 3, q), dy = row(r, 4, q);
        double u = ((x - gx) * dx + (y - gy) * dy) / mx(row(r, 0, q), TINY);
        u = mn(mx(u, q == j_lo ? mn(lo_u - (double)j_lo, 1.0) : 0.0), 1.0);
        double ex = x - (gx + dx * u), ey = y - (gy + dy * u);
        dd[m] = ex * ex + ey * ey;
        s[m] = (double)q + u;
    }
    int second = dd[1] < dd[0];
    double d = sqrt(dd[second]);
    r->s[i] = s[second] * r->ds;
    r->cte[i] += d * d;
    return 0;
}

/* lookahead_many's chunk for row i: the least crossing on the 4 segments from s_lb's, or +inf. */
static int chunk(Rollout *r, long i, double x, double y)
{
    double u_s = mx(r->s_lb[i], 0.0) / r->ds, best = INFINITY;
    long j = r->j[i] = seg(r, u_s);
    if (j < 0) return -1;
    for (long c = 0; c < 4; c++) {
        long q = j + c;
        double a = row(r, 0, q), rx = row(r, 1, q) - x, ry = row(r, 3, q) - y;
        double b = rx * row(r, 2, q) + ry * row(r, 4, q);
        double disc = b * b - a * (rx * rx + ry * ry - r->l2);
        double v = INFINITY;
        if (disc >= 0.0 && a > 0.0) {  /* else numpy's NaN roots, never inside */
            double sq = sqrt(disc), u0 = (-sq - b) / a, u1 = (sq - b) / a;
            double lo = c ? -SEAM_EPS : u_s - (double)j;
            double root = u0 > lo ? u0 : u1;
            if (u1 > lo && root <= 1.0 + SEAM_EPS) v = (double)q + mn(mx(root, 0.0), 1.0);
        }
        best = c ? mn(best, v) : v;
    }
    r->s[r->k + i] = best * r->ds;
    return 0;
}

/* _lookahead_misses' bulk test for a row the chunk missed: the skip bound at the chunk's last vertex rules out
   a root on the rest of the path, and the path end lies inside the circle. */
static int ends(const Rollout *r, long i, double x, double y)
{
    long q = r->j[i] + 4, n = r->last_j + 2;
    double skip = fabs(hypot(row(r, 1, q) - x, row(r, 3, q) - y) - r->l) / r->max_chord - 1.0;
    double ex = row(r, 1, n - 1) - x, ey = row(r, 3, n - 1) - y;
    return (q >= n - 1 || skip >= (double)(n - 1 - q)) && ex * ex + ey * ey < r->l2;
}

/* Both queries for every row, ending the rows the bulk test settles; returns the count of rows left to the
   scalar look-ahead, listed in r->miss, or -1. */
static long track(Rollout *r)
{
    long misses = 0, k = r->k;
    for (long i = 0; i < k; i++) {
        double x = r->pos[i], y = r->pos[k + i];
        if (project(r, i, x, y) || chunk(r, i, x, y)) return -1;
        if (r->s[k + i] < INFINITY) continue;
        if (ends(r, i, x, y)) {
            r->s[k + i] = r->total;
            r->ended[i] = 1;
        } else {
            r->miss[misses++] = i;
        }
    }
    return misses;
}

/* path.point_at_many at arc length s into out[0..4 * stride] (x, y, tx, ty, kappa). */
static int point_at(const Rollout *r, double s, double *out, long stride)
{
    double u = mn(mx(s / r->ds, 0.0), r->last);
    long j = seg(r, u);
    if (j < 0) return -1;
    double f = u - (double)j;
    for (int m = 0; m < 5; m++) out[m * stride] = row(r, 2 * m + 1, j) + row(r, 2 * m + 2, j) * f;
    double tn = mx(hypot(out[2 * stride], out[3 * stride]), TINY);
    out[2 * stride] /= tn;
    out[3 * stride] /= tn;
    return 0;
}

/* The step's points, then blended_many up to eta: pts rows px, py, tx, ty, x2, y2, tx2, ty2, kappa2, and
   after the law's points p4x, p4y over px, py.  Consumes the caller's fallback points. */
static int geometry(Rollout *r)
{
    long k = r->k;
    double *p = r->pts;
    for (long i = 0; i < k; i++) {
        r->s_lb[i] = mx(r->s_lb[i], r->s[k + i]);
        /* the projection's kappa, row 4, gives way to the look-ahead point's x */
        if (point_at(r, r->s[i], p + i, k) || point_at(r, r->s[k + i], p + 4 * k + i, k)) return -1;
    }
    for (long f = 0; f < r->nfall; f++)
        for (int m = 0; m < 5; m++) p[(4 + m) * k + r->frows[f]] = r->fpts[m * r->nfall + f];
    r->nfall = 0;
    for (long i = 0; i < k; i++) {
        double x = r->pos[i], y = r->pos[k + i], c = r->cs[i], sn = r->cs[k + i];
        double px = p[i], py = p[k + i], tx = p[2 * k + i], ty = p[3 * k + i], x2 = p[4 * k + i], y2 = p[5 * k + i];
        double den = tx * c + ty * sn;
        int degen = fabs(den) < PARALLEL_EPS;
        double tpar = ((x2 - px) * c + (y2 - py) * sn) / (degen ? 1.0 : den);
        double p4x = degen ? x2 : px + tpar * tx, p4y = degen ? y2 : py + tpar * ty;
        double v0x = x2 - x, v0y = y2 - y, v1x = p4x - x, v1y = p4y - y;
        r->cd[i] = c * v0y - sn * v0x;
        r->cd[k + i] = c * v1y - sn * v1x;
        r->cd[2 * k + i] = c * v0x + sn * v0y;
        r->cd[3 * k + i] = c * v1x + sn * v1y;
        p[i] = p4x;
        p[k + i] = p4y;
    }
    return 0;
}

/* numpy's float np.mod by a positive b: fmod, then Python's sign. */
static double py_mod(double a, double b)
{
    double m = fmod(a, b);
    return m ? (isless(m, 0.0) ? m + b : m) : 0.0;
}

/* The rest of blended_many from eta, the ended rows' zero, then step_arrays, in place. */
static void step(Rollout *r)
{
    long k = r->k;
    const double *p = r->pts;
    for (long i = 0; i < k; i++) {
        double x = r->pos[i], y = r->pos[k + i], c = r->cs[i], sn = r->cs[k + i];
        double p4x = p[i], p4y = p[k + i], x2 = p[4 * k + i], y2 = p[5 * k + i];
        double e0 = r->eta[i], e1 = r->eta[k + i], q = r->cd[2 * k + i];
        if (e0 <= -M_PI) e0 = e0 + TWO_PI;
        if (e1 <= -M_PI) e1 = e1 + TWO_PI;
        double p3x = q * c + x, p3y = q * sn + y, v0x = x2 - x, v0y = y2 - y;
        double d12 = hypot(v0x, v0y), lc = hypot(p4x - x, p4y - y);
        double l23 = hypot(x2 - p3x, y2 - p3y), l43 = hypot(p4x - p3x, p4y - p3y);
        if (!(lc > 0.0)) e1 = 0.0;
        double r_l1 = mx(MIN_RADIUS, 1.0 / mx(fabs(p[8 * k + i]), MIN_CURVATURE));
        double cosb = (p[6 * k + i] * v0x + p[7 * k + i] * v0y) / mx(d12, MIN_D12);
        double cb = cosb < 0.0 ? mn(cosb, -COS_BETA_MIN) : mx(cosb, COS_BETA_MIN);
        double v_m = 0.5 * (r->v + mn(mx(r->v * cos(e0) / cb, 0.0), r->v_cap));
        double arc0 = r->arc_gain * sin(e0) / mx(d12, MIN_TARGET_DIST);
        double arc1 = r->arc_gain * sin(e1) / mx(lc, MIN_TARGET_DIST);
        double w0 = r_l1 * r->k1[i] / (1.0 + l23), w1 = v_m * r->k2[i] / ((1.0 + l43) * r_l1);
        double wsum = w0 + w1;
        int small = wsum < WEIGHT_EPS;
        double a = (w0 * arc0 + w1 * arc1) / (small ? 1.0 : wsum);
        if (w0 == 0.0) a = arc1;
        if (small || w1 == 0.0) a = arc0;
        if (r->ended[i]) a = 0.0;

        a = mn(mx(a, -r->a_max), r->a_max);  /* at inf, a itself: NaN and -0.0 included */
        double om = a / r->v, a2 = r->h * om + r->psi[i], a4 = r->dt * om + r->psi[i], pw = py_mod(a4, TWO_PI);
        if (pw > M_PI) pw = pw - TWO_PI;
        double c2 = cos(a2), c4 = cos(a4), s2 = sin(a2), s4 = sin(a4);
        r->pos[i] = x + (4.0 * c2 + c + c4) * r->scale;
        r->pos[k + i] = y + (4.0 * s2 + sn + s4) * r->scale;
        r->psi[i] = pw;
        r->cs[i] = cos(pw);
        r->cs[k + i] = sin(pw);
    }
}

/* Up to n steps of r's rows, the law's angles from numpy's float64 arctan2 loop called with its data.
   Returns the steps flown, or -1; fewer than n leave r->nmiss rows in r->miss for the caller to answer
   (s[1], ended and the fallback points) before the next call, which resumes that step past its track. */
long rollout_run(Rollout *r, long n, Loop arctan2, void *data)
{
    long k = r->k, ran = 0;
    char *args[3] = {(char *)r->cd, (char *)(r->cd + 2 * k), (char *)r->eta};
    intptr_t dims = 2 * k, steps[3] = {sizeof(double), sizeof(double), sizeof(double)};
    int bad = 0;
    feclearexcept(FLAGS);
    for (; ran < n; ran++) {
        long m = r->nmiss ? 0 : track(r);
        r->nmiss = m;
        if (m) {
            bad = m < 0;
            break;
        }
        /* the flags so far are read before numpy's loop runs, in case it clears them */
        if ((bad = geometry(r) || fetestexcept(FLAGS))) break;
        arctan2(args, &dims, steps, data);
        step(r);
    }
    bad |= fetestexcept(FLAGS);
    feclearexcept(FLAGS);
    return bad ? -1 : ran;
}

/* The probe of optimizer's check: hypot(x, y), sin(x), cos(x) and the arctan2 loop's (x, y) into out as (4, n). */
void rollout_probe(const double *x, const double *y, double *out, long n, Loop arctan2, void *data)
{
    char *args[3] = {(char *)x, (char *)y, (char *)(out + 3 * n)};
    intptr_t dims = n, steps[3] = {sizeof(double), sizeof(double), sizeof(double)};
    for (long i = 0; i < n; i++) {
        out[i] = hypot(x[i], y[i]);
        out[n + i] = sin(x[i]);
        out[2 * n + i] = cos(x[i]);
    }
    arctan2(args, &dims, steps, data);
}
