(system s (chain (amplifier (gain 40 50) (bandwidth 20k))))
