"""Walk through the spectral consensus decomposition on constructed gradients.

Three "domains" share a low-frequency pattern but disagree on high-frequency
texture. The resultant map finds the agreement, the class signal keeps it, and
the per-domain signals absorb the disagreements. Every signal comes from the
kernel the distillation loop runs, on a stack of one sample's gradients:
`batch_consensus_maps` for the resultant and the class signal,
`batch_surgery_updates` for the domain signals and the steps.
"""

import numpy as np

from sgsdistill import DistillConfig, SeededRng, batch_surgery_updates
from sgsdistill.surgery import batch_consensus_maps

rng = SeededRng(0)
h = w = 16
yy, xx = np.mgrid[0:h, 0:w]

# Shared low-frequency component, identical in every domain.
shared = np.sin(2 * np.pi * yy / 8.0)[None]

domains = []
for s in range(3):
    # Each domain adds its own high-frequency checkerboard with a random sign
    # plus a little noise: structure no other domain agrees with.
    texture = 0.8 * np.where((yy + xx + s) % 2 == 0, 1.0, -1.0)[None]
    domains.append(shared + texture + 0.05 * rng.substream(s).normal(size=(1, h, w)))

# The kernel's stack: (domains, samples, channels, h, w), here one sample.
stack = np.stack(domains)[:, None]
base = np.mean(domains, axis=0)[None]
resultant, class_signal = (maps[0] for maps in batch_consensus_maps(stack, epsilon=1e-8))

print("resultant map statistics (1 = full agreement, 0 = conflict):")
print(f"  shared band   (row freq 2, col 0): r = {resultant[0, 2, 0]:.3f}")
print(f"  texture band  (Nyquist corner):    r = {resultant[0, h // 2, w // 2]:.3f}")
print(f"  overall mean r = {resultant.mean():.3f}")


def update(assigned_domain, **strengths):
    """The kernel's update of the one sample assigned to assigned_domain."""
    return batch_surgery_updates(stack, base, [assigned_domain],
                                 DistillConfig(**strengths))[0]


shared_energy = float(np.sum(shared**2))
class_vs_shared = float(np.sum((class_signal - shared) ** 2)) / shared_energy
print(f"\nclass signal recovers the shared pattern: relative error {class_vs_shared:.3f}")

# With only the domain strength on, the update is the assigned domain's signal.
domain_signals = np.stack([update(s, lambda_c=0.0, lambda_d=1.0, use_base=False)
                           for s in range(len(domains))])
dev_mean = np.abs(domain_signals.mean(axis=0)).max()
print(f"domain signals average to zero: max |mean| = {dev_mean:.2e}")

norm_class = np.linalg.norm(class_signal)
norm_raw = np.linalg.norm(base)
print(f"agreement filtering shrinks energy: |class| = {norm_class:.2f} "
      f"vs |raw mean| = {norm_raw:.2f}")

x = rng.substream(99).normal(size=(1, h, w))
eta = 0.5
plain = x - eta * update(0, lambda_c=0.0, lambda_d=0.0)
full = x - eta * update(0, lambda_c=1.0, lambda_d=1.0)
print(f"\nzero-strength step equals the plain update: "
      f"{np.array_equal(plain, x - eta * base[0])}")
print(f"full step moves further along the consensus: "
      f"|full - plain| = {np.linalg.norm(full - plain):.2f}")
