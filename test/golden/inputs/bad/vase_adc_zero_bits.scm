(system s (chain (adc (bits 0) (delay 1u))))
