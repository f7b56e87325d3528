(system s (chain (adc (bits 3.5) (delay 1u))))
