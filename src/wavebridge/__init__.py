"""wavebridge: desk-scale bridge-SDE audio super-resolution.

Library layout:
    wavio       WAV file reading/writing (PCM16/24, float32, mono)
    dsp         filters, resampling, STFT, low-band replacement
    bandwidth   effective-bandwidth estimation from the magnitude spectrum
    metrics     LSD, band-limited LSD, spectral SSIM, multi-resolution STFT loss
    kernels     conv1d compute kernels (numpy)
    nn          minimal autodiff (float64 graphs, float32 no_grad), layers, Adam
    codec       convolutional waveform VAE (encode/decode/train/scale fitting)
    bridge      bridge noise schedule, forward marginal, loss target, sampler
    predictor   conditioned noise-prediction network
    pipeline    degradation, stage training, cascaded upsampling, stitching
    toydata     synthetic corpus generation
    checkpoint  deterministic checkpoint container
    config      stage/run configuration files (INI)
    cli         command line entry points
"""

__version__ = "0.1.0"
