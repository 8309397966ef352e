"""Shared numerical oracles for the test suite."""

import numpy as np


def central_fd_grid(f, x, step=1e-6):
    """Central finite differences of scalar f with respect to every entry of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        fp = f(x)
        xf[i] = orig - step
        fm = f(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * step)
    return grad


def fd_relative_error(analytic, numeric, floor=1e-8):
    """Worst-case elementwise relative error between two gradients."""
    a = np.asarray(analytic).ravel()
    n = np.asarray(numeric).ravel()
    denom = np.maximum(np.abs(a) + np.abs(n), floor)
    return float(np.max(np.abs(a - n) / denom))


def make_dataset(rng, class_count=3, domain_count=2, train_per_cell=6,
                 test_per_cell=3, shape=(1, 4, 4), domain_shift=0.5):
    """Random multi-domain dataset; each domain adds a distinct constant shift."""
    from sgsdistill.datasets import TEST, TRAIN, MultiDomainDataset

    images, labels, domains, splits = [], [], [], []
    for d in range(domain_count):
        for c in range(class_count):
            for split, count in [(TRAIN, train_per_cell), (TEST, test_per_cell)]:
                r = rng.substream(d, c, split)
                base = r.normal(size=(count,) + shape)
                images.append(base + domain_shift * d + 0.1 * c)
                labels.extend([c] * count)
                domains.extend([d] * count)
                splits.extend([split] * count)
    return MultiDomainDataset(
        images=np.concatenate(images),
        labels=np.array(labels, dtype=np.int64),
        domains=np.array(domains, dtype=np.int64),
        splits=np.array(splits, dtype=np.uint8),
        class_count=class_count,
        domain_count=domain_count,
        name="random-test",
    )


def make_synthetic(rng, class_count=3, ipc=2, shape=(1, 4, 4), domain_count=2):
    """Random synthetic set with balanced round-robin domain assignments."""
    from sgsdistill.datasets import SyntheticSet

    n = class_count * ipc
    labels = np.repeat(np.arange(class_count), ipc).astype(np.int64)
    domains = np.array([j % domain_count for c in range(class_count) for j in range(ipc)],
                       dtype=np.int64)
    return SyntheticSet(
        images=rng.normal(size=(n,) + shape),
        labels=labels,
        domains=domains,
    )


def naive_matvec(mat, vec):
    """Double-loop matrix-vector product, independent of numpy's matmul."""
    out = np.zeros(mat.shape[0])
    for i in range(mat.shape[0]):
        acc = 0.0
        for j in range(mat.shape[1]):
            acc += mat[i, j] * vec[j]
        out[i] = acc
    return out


def per_sample_surgery(domain_gradients, base, assigned, w):
    """Three-signal updates one sample at a time through the per-sample path
    (stack, consensus, decompose, combined_update): the batch kernel's oracle."""
    from sgsdistill.surgery import (DomainGradientStack, combined_update, consensus,
                                    decompose)

    domain_gradients = np.asarray(domain_gradients, dtype=np.float64)
    out = np.empty(domain_gradients.shape[1:])
    for i in range(domain_gradients.shape[1]):
        stack = DomainGradientStack.from_gradients(i, domain_gradients[:, i])
        bundle = decompose(stack, consensus(stack, w.epsilon),
                           base=np.asarray(base[i], dtype=np.float64))
        out[i] = combined_update(bundle, assigned[i], w)
    return out


def per_sample_consensus_maps(domain_gradients, epsilon):
    """Resultant maps and class signals one sample at a time (per-sample path)."""
    from sgsdistill.surgery import DomainGradientStack, consensus, decompose

    domain_gradients = np.asarray(domain_gradients, dtype=np.float64)
    resultants = np.empty(domain_gradients.shape[1:])
    class_signals = np.empty(domain_gradients.shape[1:])
    for i in range(domain_gradients.shape[1]):
        stack = DomainGradientStack.from_gradients(i, domain_gradients[:, i])
        cons = consensus(stack, epsilon)
        resultants[i] = cons.resultant
        class_signals[i] = decompose(stack, cons).class_signal
    return resultants, class_signals
