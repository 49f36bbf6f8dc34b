package main

import "spine/internal/dist"

var legacy = dist.NewNormal
