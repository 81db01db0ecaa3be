/* Compiled training hot path, called through ctypes by netsom._core_c.
 *
 * Plain C99 with no Python API. Mirrors netsom._core_py operation for
 * operation: squared distances accumulate one dimension at a time, ties go
 * to the lowest node index, and the update is w += h * (x - w). Build with
 * -ffp-contract=off: fused multiply-adds would round differently from the
 * pure backend. The caller validates shapes, dtypes and indices.
 */
#include <math.h>
#include <stdint.h>

/* Index of the node nearest to x; its squared distance goes to *best_d2. */
static int64_t nearest(const double *weights, int64_t n_nodes, int64_t dim,
                       const double *x, double *best_d2)
{
    int64_t best = 0;
    double best_acc = 0.0;
    for (int64_t i = 0; i < n_nodes; i++) {
        const double *w = weights + i * dim;
        double acc = 0.0;
        for (int64_t k = 0; k < dim; k++) {
            double d = w[k] - x[k];
            acc += d * d;
        }
        if (i == 0 || acc < best_acc) {
            best_acc = acc;
            best = i;
        }
    }
    *best_d2 = best_acc;
    return best;
}

void netsom_bmu_batch(const double *weights, int64_t n_nodes, int64_t dim,
                      const double *xs, int64_t n_inputs,
                      int64_t *idx, double *dist)
{
    for (int64_t j = 0; j < n_inputs; j++) {
        double d2;
        idx[j] = nearest(weights, n_nodes, dim, xs + j * dim, &d2);
        dist[j] = sqrt(d2);
    }
}

void netsom_run_steps(double *weights, int64_t n_nodes, int64_t dim,
                      const double *xs, const int64_t *stimuli,
                      const double *alphas, const double *sigmas,
                      int64_t n_steps, int64_t cols)
{
    for (int64_t t = 0; t < n_steps; t++) {
        const double *x = xs + stimuli[t] * dim;
        double d2;
        int64_t c = nearest(weights, n_nodes, dim, x, &d2);
        double alpha = alphas[t];
        double sigma = sigmas[t];
        int64_t c_row = c / cols;
        int64_t c_col = c % cols;
        for (int64_t i = 0; i < n_nodes; i++) {
            double dr = (double)(i / cols - c_row);
            double dc = (double)(i % cols - c_col);
            double lat2 = dr * dr + dc * dc;
            double h = alpha * exp(-lat2 / (2.0 * sigma * sigma));
            double *w = weights + i * dim;
            for (int64_t k = 0; k < dim; k++)
                w[k] += h * (x[k] - w[k]);
        }
    }
}
