(system s (chain (amplifier (gain 40) (bandwidth 20k) (bogus 1))))
