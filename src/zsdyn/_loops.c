/* The matrix dynamics' step loop, compiled: _core._matrix_steps on C doubles.

   It runs steps k0..k1-1 of B trajectories in place on (B, n_i) row arrays,
   each trajectory b while k < ends[b]. Step k of player i of trajectory b
   reads the uniform u[(i * B + b) * w + k % w] and the rates alpha[k % w]
   and beta[k % w]. Every float operation is one that _core._matrix_steps
   does, in its order, with sums left to right. The bits hold only when this
   is compiled with -ffp-contract=off and without -ffast-math, and exp and
   sqrt come from the C library, as math.exp and math.sqrt do. */
#include <math.h>
#include <stdint.h>

/* pi += beta (smoothed_policy(q) - pi), then the action that u picks: the
   count of the partial sums pi[0] + ... + pi[j], j < n - 1, that u passes */
static int64_t move(const double *q, double *pi, int64_t n, double tau, double eps,
                    int64_t normalize, double beta, double u, double *e)
{
    double nrm = 1.0, m, tot = 0.0, acc = 0.0;
    int64_t a = 0;
    if (normalize) {
        double sq = 0.0;
        for (int64_t j = 0; j < n; j++)
            sq += q[j] * q[j];
        if (sqrt(sq) > 0.0)
            nrm = sqrt(sq);
    }
    for (int64_t j = 0; j < n; j++)
        e[j] = q[j] / nrm;
    m = e[0];
    for (int64_t j = 1; j < n; j++)
        m = e[j] > m ? e[j] : m;
    for (int64_t j = 0; j < n; j++) {
        e[j] = exp((e[j] - m) / tau);
        tot += e[j];
    }
    for (int64_t j = 0; j < n; j++)
        pi[j] += beta * (eps / n + (1.0 - eps) * (e[j] / tot) - pi[j]);
    for (int64_t j = 0; j < n - 1; j++) {
        acc += pi[j];
        a += u >= acc;
    }
    return a;
}

void zsdyn_matrix_steps(int64_t k0, int64_t k1, int64_t B, int64_t n1, int64_t n2,
                        int64_t w, int64_t normalize, double *q1, double *q2, double *pi1,
                        double *pi2, const double *R1, const double *R2, const double *tau,
                        const double *eps, const int64_t *ends, const double *u,
                        const double *alpha, const double *beta)
{
    double e[n1 > n2 ? n1 : n2];
    for (int64_t b = 0; b < B; b++) {
        double *x1 = q1 + b * n1, *x2 = q2 + b * n2, *p1 = pi1 + b * n1, *p2 = pi2 + b * n2;
        for (int64_t k = k0; k < k1 && k < ends[b]; k++) {
            int64_t c = k % w;
            int64_t a1 = move(x1, p1, n1, tau[b], eps[b], normalize, beta[c],
                              u[b * w + c], e);
            int64_t a2 = move(x2, p2, n2, tau[b], eps[b], normalize, beta[c],
                              u[(B + b) * w + c], e);
            x1[a1] += alpha[c] * (R1[a1 * n2 + a2] - x1[a1]);
            x2[a2] += alpha[c] * (R2[a2 * n1 + a1] - x2[a2]);
        }
    }
}
