(system s (chain (bandpass (fc 1k) (q 0.5) (gain 1.5))))
