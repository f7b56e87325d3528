(system s (chain (amplifier (gain 0.5) (bandwidth 20k))))
