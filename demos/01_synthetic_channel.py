"""Walk through the synthetic CSI generator.

Generates a small desk-scale dataset, then demonstrates the two defining
properties of the single-path channel: flat magnitude across subcarriers and
a phase ramp whose slope is the propagation delay. Writes the dataset to
./out/demo_dataset in the canonical container format.
"""

import numpy as np

from csiloc import (SynthConfig, channel_response, generate_synthetic,
                    write_canonical)
from csiloc.data import antenna_positions, subcarrier_frequencies, SPEED_OF_LIGHT

cfg = SynthConfig(num_samples=200, num_subcarriers=64, num_reflectors=3, seed=1)
ds = generate_synthetic(cfg)
print(f"{len(ds)} samples, CSI {ds.csi.shape[1:]} (Re/Im, antennas, subcarriers)")
print(f"positions span x {ds.pos[:,0].min():.2f}..{ds.pos[:,0].max():.2f} m, "
      f"y {ds.pos[:,1].min():.2f}..{ds.pos[:,1].max():.2f} m")
print(f"per-antenna SNR (realized): {ds.snr.min():.1f}..{ds.snr.max():.1f} dB")

# single line-of-sight path: |H| is constant over frequency ...
los_only = channel_response(cfg, np.array([[3.0, 0.2, 1.0]]))
mag = np.abs(los_only[0])
print(f"\nLoS-only magnitude spread over subcarriers: {mag.std(axis=1).max():.2e} (flat)")

# ... and the phase advances linearly with frequency at slope -2*pi*tau
freqs = subcarrier_frequencies(cfg)
ants = antenna_positions()
tau = np.linalg.norm(np.array([3.0, 0.2, 1.0]) - ants[0]) / SPEED_OF_LIGHT
measured_slope = np.angle(los_only[0, 0, 1] * np.conj(los_only[0, 0, 0])) / (freqs[1] - freqs[0])
print(f"antenna 0 delay {tau*1e9:.3f} ns; phase slope implies "
      f"{-measured_slope / (2*np.pi) * 1e9:.3f} ns")

write_canonical("out/demo_dataset", ds)
print("\nwrote out/demo_dataset (meta.json + csi.f32 + snr.f32 + pos.f32)")
