(system s (chain (lowpass (order 2.9) (fc 1k))))
