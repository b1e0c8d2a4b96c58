class AmbientError(Exception):
    """Base class for all ambientd errors."""


class InvalidArgumentError(AmbientError):
    pass


class NotFoundError(AmbientError):
    pass


class BadRequestError(AmbientError):
    pass


class PayloadTooLargeError(BadRequestError):
    """Request body over the size the HTTP layer accepts."""


class StaleReadingError(AmbientError):
    """Reading timestamp is not newer than the last one seen for the sensor."""


class CalibrationError(AmbientError):
    pass


class ConfigError(AmbientError):
    pass
