(system s (chain (amplifier (gain 40) (gain 2) (bandwidth 20k))))
