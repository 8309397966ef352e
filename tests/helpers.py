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


def assert_balanced(synthetic, ipc, domain_count):
    """Exactly ipc images per class; per class, domain counts differ by at most one."""
    for c in range(synthetic.class_count):
        members = np.flatnonzero(synthetic.labels == c)
        assert members.size == ipc, f"class {c} has {members.size} images, expected {ipc}"
        counts = np.bincount(synthetic.domains[members], minlength=domain_count)
        assert counts.max() - counts.min() <= 1, f"class {c} domain counts {counts}"


def gathered_vjp(psi, images, upstream, groups=None):
    """A featurizer's pullback gathered to the images: (..., n, C, H, W)."""
    pulled, index = psi.pullback(images, upstream, groups)
    return np.take(pulled, index, axis=-4)


def naive_matvec(mat, vec):
    """Double-loop matrix-vector product, independent of numpy's matmul."""
    out = np.zeros(mat.shape[0])
    for i in range(mat.shape[0]):
        acc = 0.0
        for j in range(mat.shape[1]):
            acc += mat[i, j] * vec[j]
        out[i] = acc
    return out


def per_sample_surgery(domain_gradients, base, assigned, cfg, rows=None, pairs=None):
    """Three-signal updates one sample at a time through the per-sample path
    (stack, consensus, decompose, combined_update) with cfg's strengths: the
    batch kernel's oracle. With rows, sample i's stack and base are row
    rows[i], gathered first. pairs, the kernel's precomputed gather, is not
    read: each sample's row and domain are."""
    from sgsdistill.surgery import (DomainGradientStack, combined_update, consensus,
                                    decompose)

    domain_gradients = np.asarray(domain_gradients, dtype=np.float64)
    if rows is not None:
        domain_gradients, base = domain_gradients[:, rows], np.asarray(base)[rows]
    out = np.empty(domain_gradients.shape[1:])
    for i in range(domain_gradients.shape[1]):
        stack = DomainGradientStack.from_gradients(i, domain_gradients[:, i])
        bundle = decompose(stack, consensus(stack, cfg.epsilon),
                           base=np.asarray(base[i], dtype=np.float64))
        out[i] = combined_update(bundle, assigned[i], cfg)
    return out


def per_sample_consensus_maps(domain_gradients, epsilon, rows=None):
    """Resultant maps and class signals one sample at a time (per-sample path),
    of the stack's rows gathered by rows first when given."""
    from sgsdistill.surgery import DomainGradientStack, consensus, decompose

    domain_gradients = np.asarray(domain_gradients, dtype=np.float64)
    if rows is not None:
        domain_gradients = domain_gradients[:, rows]
    resultants = np.empty(domain_gradients.shape[1:])
    class_signals = np.empty(domain_gradients.shape[1:])
    for i in range(domain_gradients.shape[1]):
        stack = DomainGradientStack.from_gradients(i, domain_gradients[:, i])
        cons = consensus(stack, epsilon)
        resultants[i] = cons.resultant
        class_signals[i] = decompose(stack, cons).class_signal
    return resultants, class_signals


def per_call_matching_rows(synthetic, views, psi, per_domain=True):
    """`dm.matching_rows` derived from scratch on its arguments, as before
    runs planned it: the class sizes from the synthetic set's view, each
    view's class counts, and every class feature mean through
    `dm.class_feature_mean`, with NaN rows and zero weights for classes a
    view lacks. The plan path's oracle; returns (rows, index, losses)."""
    from sgsdistill.dm import class_feature_mean

    k = synthetic.class_count
    syn_view = synthetic.as_view()
    sizes = np.array([syn_view.class_indices(c).size for c in range(k)])
    mu_syn = class_feature_mean(syn_view, psi)
    counts = np.array([np.bincount(view.labels, minlength=k)[:k] for view in views])
    held = counts > 0
    mu_real = np.full((len(views),) + mu_syn.shape, np.nan)
    for s, view in enumerate(views):
        if held[s].any():
            means = class_feature_mean(view, psi)[:k]
            mu_real[s, :len(means)] = means
    weights = (counts / counts.sum(axis=0))[..., None]
    pooled = (weights * np.where(held[..., None], mu_real, 0.0)).sum(axis=0)
    deltas = mu_syn - np.concatenate([pooled[None], mu_real])
    covectors = (2.0 / sizes)[:, None] * deltas[:len(views) + 1 if per_domain else 1]
    rows, index = psi.pullback(synthetic.images, covectors, groups=synthetic.labels)
    return rows, index, np.einsum("rkf,rkf->r", deltas, deltas)


def zero_strength_surgery_run(source, cfg):
    """The distillation loop at zero strengths with every step through the
    surgery kernel (per-domain rows and batch_surgery_updates), on the inputs
    the loop draws: the oracle plain DM must match bit for bit. Returns the
    synthetic set and the loss history."""
    from dataclasses import replace

    from sgsdistill.dm import matching_rows
    from sgsdistill.pipeline import _Inputs, _plan, initialize
    from sgsdistill.rng import SeededRng
    from sgsdistill.surgery import batch_surgery_updates

    cfg = replace(cfg, lambda_c=0.0, lambda_d=0.0)
    synthetic = initialize(source, cfg)
    views = [source.train_view(domain=s) for s in range(source.domain_count)]
    plan = _plan(source, cfg, synthetic, views, True)
    rng = SeededRng(cfg.seed)
    history = []
    for t in range(cfg.iterations):
        psi, real, real_means = _Inputs(source, cfg, rng, t, views, plan).inputs()
        rows, index, losses = matching_rows(synthetic, real, psi, real_means=real_means,
                                            plan=plan)
        history.append((t, *losses.tolist()))
        synthetic.images = synthetic.images - cfg.eta * batch_surgery_updates(
            rows[1:], rows[0], synthetic.domains, cfg, rows=index)
        synthetic.iteration = t + 1
    return synthetic, history


def naive_correlate(x, kernels):
    """Zero-padded stride-1 cross-correlation of one image (C, H, W) with
    kernels (O, C, k, k) -> (O, H, W), as explicit loops over (o, c, i, j)."""
    x = np.asarray(x, dtype=np.float64)
    out_ch, in_ch, k, _ = kernels.shape
    _, h, w = x.shape
    p = k // 2
    out = np.zeros((out_ch, h, w))
    for o in range(out_ch):
        for c in range(in_ch):
            for i in range(k):
                for j in range(k):
                    for y in range(h):
                        for z in range(w):
                            yy, zz = y + i - p, z + j - p
                            if 0 <= yy < h and 0 <= zz < w:
                                out[o, y, z] += kernels[o, c, i, j] * x[c, yy, zz]
    return out


def naive_correlate_adjoint(dz, kernels):
    """Adjoint of naive_correlate: scatters each output cotangent (O, H, W)
    back onto the input pixels its window read -> (C, H, W)."""
    out_ch, in_ch, k, _ = kernels.shape
    _, h, w = dz.shape
    p = k // 2
    grad = np.zeros((in_ch, h, w))
    for o in range(out_ch):
        for c in range(in_ch):
            for i in range(k):
                for j in range(k):
                    for y in range(h):
                        for z in range(w):
                            yy, zz = y + i - p, z + j - p
                            if 0 <= yy < h and 0 <= zz < w:
                                grad[c, yy, zz] += kernels[o, c, i, j] * dz[o, y, z]
    return grad
