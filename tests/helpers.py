"""Shared numerical oracles for the test suite."""

import tracemalloc

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


def softmax_cross_entropy(weight, bias, images, labels):
    """Mean cross-entropy and its exact gradients for a flattened batch."""
    flat = images.reshape(len(images), -1)
    logits = flat @ weight.T + bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = len(images)
    loss = -float(np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    grad_w = delta.T @ flat / n
    grad_b = delta.sum(axis=0) / n
    return loss, grad_w, grad_b


def primal_train_classifier(view, epochs, lr):
    """Full-batch gradient descent on the weights and bias themselves, two
    n x pixels gemms per epoch: the span-form `train_classifier`'s oracle."""
    from sgsdistill.evaluation import SoftmaxClassifier

    images, labels = np.asarray(view.images, dtype=np.float64), np.asarray(view.labels)
    clf = SoftmaxClassifier(weight=np.zeros((view.class_count, images[0].size)),
                            bias=np.zeros(view.class_count))
    for _ in range(int(epochs)):
        loss, grad_w, grad_b = softmax_cross_entropy(clf.weight, clf.bias, images, labels)
        clf.loss_history.append(loss)
        clf.weight -= lr * grad_w
        clf.bias -= lr * grad_b
    return clf


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


def materialised(ds, images):
    """A root dataset holding its own copy of images (ds's images, taken
    independently of ds) and ds's per-sample arrays: the materialised form
    that a subset sharing its root's pixels must match byte for byte."""
    from sgsdistill.datasets import MultiDomainDataset

    return MultiDomainDataset(images=images.copy(), labels=ds.labels, domains=ds.domains,
                              splits=ds.splits, class_count=ds.class_count,
                              domain_count=ds.domain_count, uids=ds.uids, extras=ds.extras)


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


# How far the batch kernel's half-plane transforms (rfft2 / irfft2) may sit
# from the full-plane per-sample path (fourier.fft2 / ifft2), relative to
# each output's largest magnitude: the two round differently, by about 5e-16.
FULL_PLANE_RTOL = 1e-12


def assert_close_to_full_plane(got, want, rtol=FULL_PLANE_RTOL):
    """got matches want, an output of the full-plane per-sample path, to
    within rtol of want's largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rtol * np.abs(want).max(initial=0.0)


def half_plane_split(gradients, epsilon):
    """One sample's resultant, on the half plane, and class signal from its
    per-domain stack (S, C, h, w), through np.fft.rfft2 / irfft2 as the batch
    kernel transforms: the kernel's bitwise oracle for one sample."""
    spectra = np.fft.rfft2(gradients, axes=(-2, -1))
    total = spectra.sum(axis=0)
    resultant = np.abs(total) / (np.abs(spectra).sum(axis=0) + epsilon)
    weighted = total / len(gradients) * resultant
    return resultant, np.fft.irfft2(weighted, s=gradients.shape[-2:], axes=(-2, -1))


def per_sample_surgery(domain_gradients, base, assigned, cfg, rows=None, pairs=None,
                       half_plane=True):
    """Three-signal updates one sample at a time through the per-sample path
    (stack, consensus, decompose, combined_update) with cfg's strengths: the
    batch kernel's oracle. With half_plane the class signal is
    half_plane_split's, the kernel's transforms, so the kernel matches it
    bitwise; without, it is the full-plane path's, which the kernel matches
    to within FULL_PLANE_RTOL. With rows, sample i's stack and base are row
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
        if half_plane:
            bundle.class_signal = half_plane_split(stack.gradients, cfg.epsilon)[1]
        out[i] = combined_update(bundle, assigned[i], cfg)
    return out


def per_sample_consensus_maps(domain_gradients, epsilon, rows=None, half_plane=True):
    """Resultant maps and class signals one sample at a time (per-sample path),
    of the stack's rows gathered by rows first when given. With half_plane
    they are half_plane_split's, the resultant spread to the full plane as
    `batch_consensus_maps` spreads it (its bitwise oracle); without, the
    full-plane path's."""
    from sgsdistill.surgery import DomainGradientStack, _full_plane, consensus, decompose

    domain_gradients = np.asarray(domain_gradients, dtype=np.float64)
    if rows is not None:
        domain_gradients = domain_gradients[:, rows]
    resultants = np.empty(domain_gradients.shape[1:])
    class_signals = np.empty(domain_gradients.shape[1:])
    for i in range(domain_gradients.shape[1]):
        if half_plane:
            half, class_signals[i] = half_plane_split(domain_gradients[:, i], epsilon)
            resultants[i] = _full_plane(half, domain_gradients.shape[-1])
            continue
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


def subsample_view(view, per_class, rng):
    """A class-balanced minibatch of view as a view of its own, in index
    order: up to per_class members of each class, drawn without replacement
    from rng in ascending class order (a class no larger is kept whole), or
    the view itself when per_class covers every class. The distillation
    loop's minibatch, copied out of the view: the oracle of its index-set
    draw (`pipeline._minibatch`) gathered from the run's plan."""
    from sgsdistill.datasets import DataView

    keep = []
    for c in sorted(view.by_class()):
        idx = view.by_class()[c]
        if idx.size > per_class:
            idx = idx[np.sort(rng.choice(idx.size, size=per_class, replace=False))]
        keep.append(idx)
    keep = np.concatenate(keep)
    if keep.size == len(view):
        return view
    return DataView(images=view.images[keep], labels=view.labels[keep],
                    class_count=view.class_count,
                    uids=None if view.uids is None else view.uids[keep])


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
    plan = _plan(source, cfg, synthetic, True)
    rng = SeededRng(cfg.seed)
    history = []
    for t in range(cfg.iterations):
        psi, real_means = _Inputs(source, cfg, rng, t, plan).inputs()
        rows, index, losses = matching_rows(synthetic, None, psi, real_means=real_means,
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


def peak_allocation(call):
    """(call(), the most bytes it held allocated at once, as tracemalloc saw)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        return call(), tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
